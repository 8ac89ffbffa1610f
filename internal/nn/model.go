package nn

import (
	"encoding/json"
	"fmt"
)

// modelJSON is the on-disk network format.
type modelJSON struct {
	Config  Config    `json:"config"`
	Weights []float64 `json:"weights"`
	// RunStats holds the batch-norm running statistics, which are state
	// but not weights.
	RunStats [][]float64 `json:"run_stats"`
}

// MarshalModel serializes the network (architecture + weights + BN
// running statistics) to JSON, so long searches can resume across runs of
// cmd/nocexplore.
func MarshalModel(net *PolicyValueNet) ([]byte, error) {
	m := modelJSON{Config: net.Cfg, Weights: net.GetWeights()}
	for _, bn := range net.bns {
		m.RunStats = append(m.RunStats, append([]float64(nil), bn.RunMean...))
		m.RunStats = append(m.RunStats, append([]float64(nil), bn.RunVar...))
	}
	return json.Marshal(m)
}

// UnmarshalModel reconstructs a network from MarshalModel output. A model
// whose architecture, weight count or BatchNorm statistics do not fit
// together is rejected with an error.
func UnmarshalModel(data []byte) (*PolicyValueNet, error) {
	var m modelJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if m.Config.N < 2 {
		return nil, fmt.Errorf("nn: model has NoC size %d, need at least 2", m.Config.N)
	}
	net := NewPolicyValueNet(m.Config, 0)
	if len(m.Weights) != net.NumParams() {
		return nil, fmt.Errorf("nn: model has %d weights, architecture needs %d",
			len(m.Weights), net.NumParams())
	}
	net.SetWeights(m.Weights)
	if len(m.RunStats) != 2*len(net.bns) {
		return nil, fmt.Errorf("nn: model has %d BN stat vectors, want %d",
			len(m.RunStats), 2*len(net.bns))
	}
	for i, bn := range net.bns {
		mean, vr := m.RunStats[2*i], m.RunStats[2*i+1]
		if len(mean) != bn.C || len(vr) != bn.C {
			return nil, fmt.Errorf("nn: model BN layer %d has %d/%d running stats, want %d",
				i, len(mean), len(vr), bn.C)
		}
		copy(bn.RunMean, mean)
		copy(bn.RunVar, vr)
	}
	return net, nil
}
