package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"routerless/internal/drl"
	"routerless/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestAttribute checks the self-time split on a synthetic aggregate: the
// learner tracks hold threads × drl.run, the sim track the sim.Run time,
// and whatever no span's self time covers is unattributed.
func TestAttribute(t *testing.T) {
	ms := int64(time.Millisecond)
	stats := []obs.SpanStat{
		{Kind: "drl.run", Count: 1, TotalNS: 100 * ms, SelfNS: 100 * ms},
		{Kind: "drl.episode", Count: 10, TotalNS: 190 * ms, SelfNS: 40 * ms},
		{Kind: "drl.train", Count: 10, TotalNS: 120 * ms, SelfNS: 120 * ms},
		{Kind: "nn.forward", Count: 30, TotalNS: 25 * ms, SelfNS: 25 * ms},
		{Kind: "mcts.expand", Count: 5, TotalNS: 10 * ms, SelfNS: 5 * ms},
		{Kind: "sim.run", Count: 2, TotalNS: 48 * ms, SelfNS: 2 * ms},
		{Kind: "sim.measure", Count: 2, TotalNS: 40 * ms, SelfNS: 40 * ms},
		{Kind: "sim.warmup", Count: 2, TotalNS: 6 * ms, SelfNS: 6 * ms},
	}
	a := attribute(stats, 2, 50*time.Millisecond)
	if !near(a.searchTrackS, 0.2) || !near(a.simTrackS, 0.05) {
		t.Fatalf("tracks %v + %v, want 0.2 + 0.05", a.searchTrackS, a.simTrackS)
	}
	if !near(a.searchUnattrS, 0.2-0.19) || !near(a.simUnattrS, 0.05-0.048) {
		t.Fatalf("unattributed %v + %v, want 0.01 + 0.002", a.searchUnattrS, a.simUnattrS)
	}
	sum := a.unattributedS()
	for _, r := range a.rows {
		if r.span == "drl.run" {
			t.Fatal("drl.run is the learner tracks' container, not a row")
		}
		sum += r.selfS
	}
	if !near(sum, a.totalS()) {
		t.Fatalf("rows + unattributed = %v, total %v", sum, a.totalS())
	}
}

// TestSyntheticTracer records spans with fixed times and reads them back
// the way a traced session does: percentiles from the exported trace,
// self time and unattributed time from the aggregate.
func TestSyntheticTracer(t *testing.T) {
	tr := obs.NewTracer(256)
	ms := int64(time.Millisecond)
	tr.Shard("drl.run").Record(obs.SpanSearchRun, 0, 100*ms)
	worker := tr.Shard("drl.worker.00")
	at := int64(0)
	for d := int64(1); d <= 10; d++ {
		worker.Record(obs.SpanEpisode, at, at+d*ms)
		at += d*ms + ms
	}
	durs, err := spanDurations(tr, "drl.episode")
	if err != nil {
		t.Fatal(err)
	}
	if len(durs) != 10 {
		t.Fatalf("%d episode spans exported, want 10", len(durs))
	}
	if p50, p90 := quantile(durs, 0.5), quantile(durs, 0.9); !near(p50, 0.0055) || !near(p90, 0.0091) {
		t.Fatalf("p50 %v p90 %v, want 0.0055 0.0091", p50, p90)
	}
	// Ten episodes of 1..10 ms cover 55 of the run's 100 ms.
	a := attribute(tr.Aggregate(), 1, 0)
	if !near(a.searchUnattrS, 0.045) {
		t.Fatalf("unattributed %v, want 0.045", a.searchUnattrS)
	}
}

func TestQuantile(t *testing.T) {
	if quantile(nil, 0.5) != 0 {
		t.Fatal("quantile of no samples should be 0")
	}
	xs := []float64{3, 1, 2}
	if median(xs) != 2 || quantile(xs, 0) != 1 || quantile(xs, 1) != 3 || quantile(xs, 0.25) != 1.5 {
		t.Fatalf("quantiles of %v wrong", xs)
	}
	if xs[0] != 3 {
		t.Fatal("quantile sorted its input in place")
	}
}

func TestDigest(t *testing.T) {
	outs := []output{{"search", "best_hops=6.125 valid=3"}, {"rec/uniform_random/low", "lat=" + ff(11.5)}}
	same := []output{{"search", "best_hops=6.125 valid=3"}, {"rec/uniform_random/low", "lat=" + ff(11.5)}}
	if digest(outs) != digest(same) {
		t.Fatal("equal outputs digest differently")
	}
	// One bit of one float changes the digest.
	flipped := []output{outs[0], {"rec/uniform_random/low", "lat=" + ff(math.Nextafter(11.5, 12))}}
	if digest(outs) == digest(flipped) {
		t.Fatal("a one-ulp change kept the digest")
	}
	// Name/value boundaries are part of the digest.
	if digest([]output{{"ab", "c"}}) == digest([]output{{"a", "bc"}}) {
		t.Fatal("moved boundary kept the digest")
	}
	if digest(outs) == digest([]output{outs[1], outs[0]}) {
		t.Fatal("reordered outputs kept the digest")
	}
	if outputHash("x") == outputHash("y") || len(outputHash("x")) != 16 {
		t.Fatal("output hash does not separate values")
	}
	if ff(0.1) != "0.1" || ff(1.0/3) != "0.3333333333333333" {
		t.Fatal("ff does not print the shortest exact form")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONNamesWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program documents %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name {
			t.Errorf("per-layer metric %d: BENCHMARK.json %q, program %q", i, m.Name, perLayer[i].name)
		}
	}
}

// tiny shrinks a workload's simulation windows for a smoke run. The
// searches keep their episodes: fewer would let the no-DNN search end
// without a fully connected design.
func tiny(w workload) workload {
	pts := make([]point, len(w.points))
	for i, p := range w.points {
		p.warmup, p.measure = 100, 400
		pts[i] = p
	}
	w.points = pts
	return w
}

// TestSmoke runs every workload, shrunk, through a traced and an untraced
// run and checks that its outputs pass and that it reports exactly the
// metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs searches")
	}
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := measure(tiny(w), 5, time.Millisecond, traced, nil)
			if r.failed != 0 {
				t.Errorf("%s traced=%t: %d failed: %v", w.name, traced, r.failed, r.failures)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(r.metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json %q", w.name, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, got.Value)
				}
			}
			var out bytes.Buffer
			r.report(&out)
			if traced && !strings.Contains(out.String(), "\nunattributed ") {
				t.Errorf("%s: traced report has no unattributed row:\n%s", w.name, out.String())
			}
		}
	}
}

// TestReferenceMatchesPlainSearch runs each deterministic workload's first
// default-seed search with no telemetry hooks, as a user would, and checks
// it against the recorded reference: the hooks the benchmark passes do not
// change what the search finds.
func TestReferenceMatchesPlainSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs searches")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !w.deterministic() {
			continue
		}
		res := drl.MustNew(w.searchConfig(inputSeed(defaultSeed, 0))).Run()
		s := &session{failures: map[string]string{}}
		s.checkSearch(w, res, w.episodes)
		if len(s.failures) != 0 {
			t.Fatalf("%s: %v", w.name, s.failures)
		}
		s.checkReference(ref[w.name], 0)
		if len(s.failures) != 0 {
			t.Errorf("%s: plain search differs from reference: %v", w.name, s.failures)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-sweep", "--trace", "2"},
		{"--workload", "sim-sweep", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestCalibrator checks the host-speed tally: no scaling before the kernel
// has run, the kernel's share of a session's time, and a kernel whose work
// repeats exactly, so its rate measures only the host.
func TestCalibrator(t *testing.T) {
	for _, threads := range []int{1, 2} {
		c := newCalibrator(threads)
		if c.speed() != 1 {
			t.Fatalf("threads=%d: speed %v before any pace, want 1", threads, c.speed())
		}
		c.pace(50 * time.Millisecond)
		want := time.Duration(float64(threads) * calibShare * float64(50*time.Millisecond))
		if c.reps == 0 || c.busy < want {
			t.Fatalf("threads=%d: %d reps in %v, want some in at least %v", threads, c.reps, c.busy, want)
		}
		if !(c.speed() > 0) {
			t.Fatalf("threads=%d: speed %v", threads, c.speed())
		}
	}
	a, b := newKernel(3), newKernel(3)
	for i := 0; i < 5; i++ {
		a.rep()
		b.rep()
	}
	if a.sink != b.sink || a.c != b.c {
		t.Fatal("two kernels from one seed diverged")
	}
}

func TestRSSSampler(t *testing.T) {
	r := startRSSSampler()
	time.Sleep(5 * rssEvery)
	if mb := r.stopMB(); !(mb > 0) {
		t.Fatalf("peak resident set %v MiB", mb)
	}
}
