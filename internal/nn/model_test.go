package nn

import (
	"encoding/json"
	"math/rand"
	"testing"
)

var (
	jsonMarshal   = json.Marshal
	jsonUnmarshal = json.Unmarshal
)

func TestModelRoundTrip(t *testing.T) {
	net := NewPolicyValueNet(TestConfig(4), 17)
	// Touch BN running stats so they are nontrivial.
	in := randomHopMatrix(rand.New(rand.NewSource(18)), 4)
	for i := 0; i < 5; i++ {
		net.Forward(in, true)
	}
	want := net.Forward(in, false)

	data, err := MarshalModel(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Forward(in, false)
	if got.Value != want.Value || got.Dir != want.Dir {
		t.Fatalf("round trip changed outputs: %v/%v vs %v/%v",
			got.Value, got.Dir, want.Value, want.Dir)
	}
	for g := 0; g < 4; g++ {
		for i := range want.CoordProbs[g] {
			if got.CoordProbs[g][i] != want.CoordProbs[g][i] {
				t.Fatal("policy probs differ after round trip")
			}
		}
	}
}

func TestUnmarshalModelRejectsCorrupt(t *testing.T) {
	if _, err := UnmarshalModel([]byte("{")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	net := NewPolicyValueNet(TestConfig(4), 1)
	data, _ := MarshalModel(net)
	// Truncate the weights array by re-marshalling a tampered struct.
	var m map[string]interface{}
	if err := jsonUnmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["weights"] = []float64{1, 2, 3}
	bad, _ := jsonMarshal(m)
	if _, err := UnmarshalModel(bad); err == nil {
		t.Fatal("accepted weight-count mismatch")
	}

	// A NoC size the network cannot be built for must be an error, not a
	// panic inside NewPolicyValueNet.
	small := NewPolicyValueNet(Config{N: 2, BaseChannels: 1, Pools: 1}, 1)
	data, _ = MarshalModel(small)
	if err := jsonUnmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["config"].(map[string]interface{})["N"] = 1
	bad, _ = jsonMarshal(m)
	if _, err := UnmarshalModel(bad); err == nil {
		t.Fatal("accepted N=1")
	}

	// Running-statistics vectors of the wrong length must not be silently
	// truncated or zero-padded.
	for _, n := range []int{0, 2} {
		if err := jsonUnmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		stats := m["run_stats"].([]interface{})
		stats[0] = make([]float64, n)
		bad, _ = jsonMarshal(m)
		if _, err := UnmarshalModel(bad); err == nil {
			t.Fatalf("accepted a %d-element running-mean vector for 1 channel", n)
		}
	}
}
