package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"routerless/internal/obs"
)

// host is the fingerprint printed with every result. Toolchain, GOMAXPROCS
// and git provenance come from obs.Manifest; the rest from /proc.
type host struct {
	CPU        string   `json:"cpu"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	SIMD       []string `json:"simd"`
	GoVersion  string   `json:"go_version"`
	GitRev     string   `json:"git_rev"`
	GitDirty   bool     `json:"git_dirty"`
	StealFrac  float64  `json:"steal_frac"`
}

// simdFlags are the /proc/cpuinfo flags reported, when present.
var simdFlags = []string{"sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl"}

func hostInfo(steal float64) host {
	m := obs.NewManifest("perfbench")
	h := host{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: m.GOMAXPROCS,
		GoVersion:  m.GoVersion,
		GitRev:     m.GitRev,
		GitDirty:   m.GitDirty,
		StealFrac:  steal,
	}
	if h.GitRev == "" {
		h.GitRev = "unknown" // built outside a git checkout
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var flags map[string]bool
	for sc.Scan() && (h.CPU == "unknown" || flags == nil) {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			h.CPU = strings.TrimSpace(val)
		case "flags":
			flags = map[string]bool{}
			for _, fl := range strings.Fields(val) {
				flags[fl] = true
			}
		}
	}
	for _, fl := range simdFlags {
		if flags[fl] {
			h.SIMD = append(h.SIMD, fl)
		}
	}
	return h
}

// cpuTimes reads the aggregate cpu line of /proc/stat: the total of its
// jiffies and the steal column (the eighth). ok is false off Linux.
func cpuTimes() (total, steal int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// guest and guest_nice (fields 9 and 10) are already inside user/nice.
	for i, f := range fields[1:min(len(fields), 9)] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// rssEvery is how often an rssSampler reads the resident set size.
const rssEvery = 2 * time.Millisecond

// rssSampler polls the process's resident set size from a goroutine of its
// own and keeps the largest value seen.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes; written by the goroutine, read after done closes
}

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: residentBytes()}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				r.peak = max(r.peak, residentBytes())
				return
			case <-t.C:
				r.peak = max(r.peak, residentBytes())
			}
		}
	}()
	return r
}

// stopMB stops the sampler, waits for its goroutine and returns the peak
// in MiB.
func (r *rssSampler) stopMB() float64 {
	close(r.stop)
	<-r.done
	return float64(r.peak) / (1 << 20)
}

// residentBytes reads the resident set size from /proc/self/statm, or the
// Go runtime's reservation from the OS where /proc is unavailable.
func residentBytes() int64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}
