package main

import (
	"io"
	"strings"
	"testing"

	"wsmalloc/internal/cli/clitest"
)

func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, "fleet-daemon", newCommand(io.Discard).FlagSet)
}

func TestUsageErrors(t *testing.T) {
	clitest.Usage(t, run, "flag provided but not defined: -nosuch", "-nosuch")
	clitest.Usage(t, run, "-design: ", "-design", "bogus")
	clitest.Usage(t, run, "-resume needs -checkpoint-dir", "-resume")
	clitest.Usage(t, run, "-churn 3: must be in [0,1]", "-churn", "3")
	clitest.Usage(t, run, "-sample 0: must be in (0,1]", "-sample", "0")
	clitest.Usage(t, run, `invalid value "x" for flag -tick-ms`, "-tick-ms", "x")
	if code := run([]string{"-h"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}

// TestBoundedRun runs the daemon for a few ticks on an ephemeral port
// and checks it starts under the requested design and stops cleanly.
func TestBoundedRun(t *testing.T) {
	var stdout, stderr strings.Builder
	args := []string{"-listen", "127.0.0.1:0", "-machines", "8", "-sample", "0.5",
		"-design", "baseline", "-tick-ms", "1", "-ticks", "4", "-j", "1"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"design percpu=static,tc=central,cfl=legacy,filler=none, 1ms ticks", "stopped at tick 4 (4.0 ms virtual)"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout %q lacks %q", stdout.String(), want)
		}
	}
}
