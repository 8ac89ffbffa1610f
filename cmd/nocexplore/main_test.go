package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests re-run this binary as the command itself: with
// NOCEXPLORE_ARGS set, the process runs main on those arguments and exits.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("NOCEXPLORE_ARGS"); ok {
		os.Args = append([]string{"nocexplore"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestRejectsNonPositiveCounts(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-episodes 0", "-episodes must be positive, got 0"},
		{"-episodes -1", "-episodes must be positive, got -1"},
		{"-threads 0", "-threads must be positive, got 0"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "NOCEXPLORE_ARGS=-n 4 -progress 0 "+tc.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s: err %v, want exit status 2; output:\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) || !strings.Contains(string(out), "Usage") {
			t.Errorf("%s: output lacks %q and the usage text:\n%s", tc.args, tc.want, out)
		}
	}
}
