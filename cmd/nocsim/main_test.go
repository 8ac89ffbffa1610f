package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests re-run this binary as the command itself: with
// NOCSIM_ARGS set, the process runs main on those arguments and exits.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("NOCSIM_ARGS"); ok {
		os.Args = append([]string{"nocsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runNocsim runs the command on args and returns its exit status and
// combined output.
func runNocsim(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "NOCSIM_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("%s: %v", args, err)
	return -1, ""
}

func TestRejectsNonsenseFlags(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-mesh 4 -delay -1", "-delay must be non-negative, got -1"},
		{"-mesh 4 -measure -5", "-measure must be positive, got -5"},
		{"-mesh 4 -measure 0", "-measure must be positive, got 0"},
		{"-mesh 4 -warmup -1", "-warmup must be non-negative, got -1"},
		{"-mesh 4 -rates 0.01,-0.02", `-rates needs non-negative numbers, got "-0.02"`},
		{"-mesh 4 -rates 0.01,x", `-rates needs non-negative numbers, got "x"`},
		{"-mesh 1", "-mesh must be 0 (off) or at least 2, got 1"},
		{"-mesh -3", "-mesh must be 0 (off) or at least 2, got -3"},
	} {
		code, out := runNocsim(t, tc.args)
		if code != 2 {
			t.Fatalf("%s: exit status %d, want 2; output:\n%s", tc.args, code, out)
		}
		if !strings.Contains(out, tc.want) || !strings.Contains(out, "Usage") {
			t.Errorf("%s: output lacks %q and the usage text:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestAcceptsSmallSweep is the control: the smallest valid sweep runs and
// exits 0.
func TestAcceptsSmallSweep(t *testing.T) {
	code, out := runNocsim(t, "-mesh 2 -delay 0 -rates 0,0.05 -warmup 0 -measure 50")
	if code != 0 || !strings.Contains(out, "zero-load latency") {
		t.Fatalf("exit status %d, want 0 and a sweep table; output:\n%s", code, out)
	}
}
