package main

import (
	"math/bits"
	"math/rand"
	"sync"
	"time"
)

// A shared VM's speed swings by tens of percent from minute to minute:
// other guests on the same cores, caches and memory slow every instruction
// the program runs, and only part of that shows as CPU steal. The
// end-to-end times are therefore scaled to a reference host speed. Between
// sessions the benchmark runs a fixed kernel of its own, for a set share
// of the time the session took, so the kernel samples the host at the same
// moments as the work does; the host's speed is the kernel's rate over the
// run divided by its rate on the reference host. A rate measured while the
// kernel ran at 0.7 of its reference speed is divided by 0.7. The kernel is
// the benchmark's code, not the program's, so a change to the program moves
// the scaled figures exactly as much as the raw ones.

// calibShare is the kernel's time per unit of session time.
const calibShare = 0.2

// refKernelRate is the kernel's repetitions per second on one thread of
// the reference host (a 2-vCPU Intel Xeon VM at AVX-512 level, Go 1.24,
// otherwise idle): the speed the end-to-end times are scaled to.
const refKernelRate = 9_400

// Kernel sizes, after the program's three kinds of work: a dense float
// product the size of a small convolution tile (nn), a dependent walk
// through a table the size of a mid-level cache (the simulator's and the
// tree's pointer-heavy state), and a run of branchy integer steps (rl and
// topo). Each takes about a third of a repetition on the reference host.
const (
	kernelDim   = 24
	chaseLen    = 1 << 16 // uint32 entries, 256 KiB
	chaseSteps  = 8192
	branchSteps = 8192
)

// kernel is one thread's calibration state. Its work per repetition never
// changes, and nothing it touches is shared with the program.
type kernel struct {
	a, b, c [kernelDim * kernelDim]float64
	next    []uint32 // one cycle through every entry
	pos     uint32
	x       uint64
	sink    uint64
}

func newKernel(seed int64) *kernel {
	k := &kernel{next: make([]uint32, chaseLen), x: uint64(seed)*0x9e3779b97f4a7c15 | 1}
	rng := rand.New(rand.NewSource(seed))
	for i := range k.a {
		k.a[i] = rng.Float64() - 0.5
		k.b[i] = rng.Float64() - 0.5
	}
	// Sattolo's shuffle makes next a single cycle, so the walk never
	// settles into a short loop that fits a cache.
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	for i := chaseLen - 1; i > 0; i-- {
		j := rng.Intn(i)
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	return k
}

// rep runs one repetition of the kernel.
func (k *kernel) rep() {
	for i := 0; i < kernelDim; i++ {
		for j := 0; j < kernelDim; j++ {
			s := k.c[i*kernelDim+j] * 0.5
			for l := 0; l < kernelDim; l++ {
				s += k.a[i*kernelDim+l] * k.b[l*kernelDim+j]
			}
			k.c[i*kernelDim+j] = s
		}
	}
	p := k.pos
	for i := 0; i < chaseSteps; i++ {
		p = k.next[p]
	}
	k.pos = p
	x, acc := k.x, uint64(0)
	for i := 0; i < branchSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			acc += uint64(bits.OnesCount64(x))
		} else if x&4 != 0 {
			acc ^= x >> 11
		} else {
			acc--
		}
	}
	k.x = x
	k.sink += acc + uint64(p)
}

// calibrator runs the kernel between sessions and keeps its tally. It runs
// one kernel per thread the workload uses, at once, so a workload that
// keeps two CPUs busy is scaled by the speed of two busy CPUs.
type calibrator struct {
	kernels []*kernel
	reps    int64
	// busy is the kernels' summed running time across threads.
	busy time.Duration
}

func newCalibrator(threads int) *calibrator {
	c := &calibrator{}
	for i := 0; i < max(1, threads); i++ {
		c.kernels = append(c.kernels, newKernel(int64(i+1)))
	}
	return c
}

// pace runs the kernels for calibShare of d. The first kernel runs on the
// calling goroutine, so a one-thread workload's kernel runs where its
// sessions ran.
func (c *calibrator) pace(d time.Duration) {
	target := time.Duration(calibShare * float64(d))
	if target <= 0 {
		return
	}
	reps := make([]int64, len(c.kernels))
	took := make([]time.Duration, len(c.kernels))
	spin := func(i int) {
		start := time.Now()
		for time.Since(start) < target {
			c.kernels[i].rep()
			reps[i]++
		}
		took[i] = time.Since(start)
	}
	var wg sync.WaitGroup
	for i := 1; i < len(c.kernels); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spin(i)
		}(i)
	}
	spin(0)
	wg.Wait()
	for i := range reps {
		c.reps += reps[i]
		c.busy += took[i]
	}
}

// speed is the host's speed relative to the reference host over every
// pace so far; 1 before any.
func (c *calibrator) speed() float64 {
	if c.reps == 0 || c.busy <= 0 {
		return 1
	}
	return float64(c.reps) / c.busy.Seconds() / refKernelRate
}
