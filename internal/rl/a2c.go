package rl

import (
	"routerless/internal/nn"
	"routerless/internal/topo"
)

// StepRecord is one trajectory element: the state observed, the action
// taken, the immediate reward, and the network outputs at decision time.
type StepRecord struct {
	State  []float64
	Action Action
	Reward float64
	// Out is the network evaluation used to choose the action (nil when
	// the action came from greedy search or the tree; the trainer
	// re-evaluates in that case).
	Out *nn.Output
}

// Trajectory is an episode's step sequence plus its final return.
type Trajectory struct {
	Steps []StepRecord
	// Final is the episode-final return (mesh hops − design hops).
	Final float64
}

// A2C computes advantage actor-critic gradients (Eqs. 15–18) for a
// trajectory and accumulates them into net's parameter gradients. The
// struct carries reusable scratch buffers, so one A2C value per worker
// makes repeated Accumulate calls allocation-free; it is not safe for
// concurrent use.
type A2C struct {
	// Gamma is the discount factor γ.
	Gamma float64
	// ValueCoeff scales the value-head loss (the paper's constant c in
	// Eq. 20).
	ValueCoeff float64
	// TrainBatch is the tile size for the batched trajectory update: steps
	// are processed in t-ordered tiles of up to TrainBatch samples, each
	// tile one training ForwardBatch + BackwardBatch pass. Values ≤ 1 select
	// the per-step sequential path, which is the batched path's
	// byte-identity oracle: both orders of evaluation produce bit-equal
	// gradients, running statistics, and MSE.
	TrainBatch int

	// Scratch reused across Accumulate calls: discounted returns-to-go,
	// the per-head policy-gradient logits (sequential path), and the
	// batched-tile views and head-gradient rows (batched path).
	returns []float64
	dLogits [4][]float64
	states  [][]float64
	outs    []nn.Output
	flat    []float64
	dDir    []float64
	dVal    []float64
}

// DefaultA2C mirrors the paper's formulation with γ close to one. The
// batched trajectory update is on by default; zero-value A2C literals keep
// the sequential path.
func DefaultA2C() A2C { return A2C{Gamma: 0.99, ValueCoeff: 0.5, TrainBatch: 16} }

// Accumulate back-propagates the trajectory through net. Gradients are
// summed into net's parameter gradient buffers; callers then apply them
// locally (SGD.Step) or ship them to the parameter server (§4.6).
// It returns the mean squared value error, a training-progress signal.
func (a *A2C) Accumulate(net *nn.PolicyValueNet, traj Trajectory) float64 {
	n := len(traj.Steps)
	if n == 0 {
		return 0
	}
	// Discounted returns-to-go, seeding with the final return after the
	// last step: G_t = r_t + γ G_{t+1}, G_n = Final.
	if cap(a.returns) < n {
		a.returns = make([]float64, n)
	}
	returns := a.returns[:n]
	g := traj.Final
	for t := n - 1; t >= 0; t-- {
		g = traj.Steps[t].Reward + a.Gamma*g
		returns[t] = g
	}
	if a.TrainBatch > 1 {
		return a.accumulateBatched(net, traj, returns)
	}
	return a.accumulateSequential(net, traj, returns)
}

// accumulateSequential is the original per-step update: one Forward and one
// Backward per trajectory step, in trajectory order. It is retained as the
// parity oracle for the batched path.
func (a *A2C) accumulateSequential(net *nn.PolicyValueNet, traj Trajectory, returns []float64) float64 {
	mse := 0.0
	for t, s := range traj.Steps {
		out := net.Forward(s.State, true)
		adv := returns[t] - out.Value // A_t (Eq. 16)

		// Policy gradient for the coordinate heads: for loss
		// -A log π(a), d/dlogit_i = A (p_i - 1{i==a_g}).
		chosen := [4]int{s.Action.X1, s.Action.Y1, s.Action.X2, s.Action.Y2}
		for gi := 0; gi < 4; gi++ {
			if cap(a.dLogits[gi]) < len(out.CoordProbs[gi]) {
				a.dLogits[gi] = make([]float64, len(out.CoordProbs[gi]))
			}
			dl := a.dLogits[gi][:len(out.CoordProbs[gi])]
			for i, p := range out.CoordProbs[gi] {
				dl[i] = adv * p
			}
			dl[chosen[gi]] -= adv
			a.dLogits[gi] = dl
		}
		dLogits := a.dLogits
		// Direction head: the tanh output maps to P(clockwise) =
		// (1+Dir)/2. For loss -A log P(chosen):
		//   clockwise:        d/dz = -A (1 - Dir)
		//   counterclockwise: d/dz = +A (1 + Dir)
		var dDir float64
		if s.Action.Dir == topo.Clockwise {
			dDir = -adv * (1 - out.Dir)
		} else {
			dDir = adv * (1 + out.Dir)
		}
		// Value head: loss c·(G - V)², d/dV = 2c(V - G) (Eq. 18).
		dValue := 2 * a.ValueCoeff * (out.Value - returns[t])
		mse += (out.Value - returns[t]) * (out.Value - returns[t])

		net.Backward(dLogits, dDir, dValue)
	}
	return mse / float64(len(traj.Steps))
}

// accumulateBatched fuses the per-step update into tile-sized batched
// passes: each tile of up to TrainBatch consecutive steps runs one training
// ForwardBatch (per-layer activations cached for every sample) and one
// BackwardBatch. Head gradients for the whole tile are computed in a single
// vectorized sweep between the two network calls. Because the batched
// network passes reduce in ascending sample (= trajectory) order with the
// same kernels as the sequential path, the accumulated gradients, BatchNorm
// running statistics, and returned MSE are byte-identical to
// accumulateSequential.
func (a *A2C) accumulateBatched(net *nn.PolicyValueNet, traj Trajectory, returns []float64) float64 {
	n := len(traj.Steps)
	nc := net.Cfg.N
	tile := a.TrainBatch
	if tile > n {
		tile = n
	}
	if cap(a.states) < tile {
		a.states = make([][]float64, tile)
	}
	if cap(a.outs) < tile {
		a.outs = make([]nn.Output, tile)
	}
	if cap(a.flat) < tile*4*nc {
		a.flat = make([]float64, tile*4*nc)
	}
	if cap(a.dDir) < tile {
		a.dDir = make([]float64, tile)
	}
	if cap(a.dVal) < tile {
		a.dVal = make([]float64, tile)
	}

	mse := 0.0
	for t0 := 0; t0 < n; t0 += tile {
		nb := tile
		if t0+nb > n {
			nb = n - t0
		}
		states := a.states[:nb]
		outs := a.outs[:nb]
		for bi := 0; bi < nb; bi++ {
			states[bi] = traj.Steps[t0+bi].State
		}
		net.ForwardBatch(states, outs, true)

		flat := a.flat[:nb*4*nc]
		dDir := a.dDir[:nb]
		dVal := a.dVal[:nb]
		for bi := 0; bi < nb; bi++ {
			s := &traj.Steps[t0+bi]
			out := &outs[bi]
			adv := returns[t0+bi] - out.Value // A_t (Eq. 16)

			chosen := [4]int{s.Action.X1, s.Action.Y1, s.Action.X2, s.Action.Y2}
			row := flat[bi*4*nc : (bi+1)*4*nc]
			for gi := 0; gi < 4; gi++ {
				dl := row[gi*nc : (gi+1)*nc]
				for i, p := range out.CoordProbs[gi] {
					dl[i] = adv * p
				}
				dl[chosen[gi]] -= adv
			}
			if s.Action.Dir == topo.Clockwise {
				dDir[bi] = -adv * (1 - out.Dir)
			} else {
				dDir[bi] = adv * (1 + out.Dir)
			}
			dVal[bi] = 2 * a.ValueCoeff * (out.Value - returns[t0+bi])
			mse += (out.Value - returns[t0+bi]) * (out.Value - returns[t0+bi])
		}
		net.BackwardBatch(flat, dDir, dVal)
	}
	return mse / float64(n)
}
