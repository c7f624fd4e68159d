package main

import (
	"io"
	"path/filepath"
	"testing"

	"wsmalloc/internal/cli/clitest"
)

func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, "wsmalloc-sim", newCommand(io.Discard).FlagSet)
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	clitest.Usage(t, run, "flag provided but not defined: -nosuch", "-nosuch")
	clitest.Usage(t, run, `invalid value "abc" for flag -duration-ms`, "-duration-ms", "abc")
	clitest.Usage(t, run, `unknown profile "bogus"`, "-profile", "bogus")
	clitest.Usage(t, run, `unknown config "bogus"`, "-config", "bogus")
	clitest.Usage(t, run, `unknown config "all"`, "-config", "all")
	clitest.Usage(t, run, "-design: ", "-design", "bogus")
	clitest.Usage(t, run, "-resume needs -checkpoint-dir", "-resume")
	clitest.Usage(t, run, "-kill-frac needs -checkpoint-dir", "-kill-frac", "0.5")
	clitest.Usage(t, run, "-kill-frac 2: must be 0 or in (0,1)", "-checkpoint-dir", dir, "-kill-frac", "2")
	clitest.Usage(t, run, "-kill-frac 1: must be 0 or in (0,1)", "-checkpoint-dir", dir, "-kill-frac", "1")
	clitest.Usage(t, run, "-kill-frac -0.5: must be 0 or in (0,1)", "-checkpoint-dir", dir, "-kill-frac", "-0.5")
	clitest.Usage(t, run, "-checkpoint-every-ms needs -checkpoint-dir", "-checkpoint-every-ms", "5")
	clitest.Usage(t, run, "-churn 3: must be in [0,1]", "-churn", "3")
	clitest.Usage(t, run, "-churn -0.1: must be in [0,1]", "-churn", "-0.1")
	clitest.Usage(t, run, "-pageheapz and -serve are not available with lifecycle flags", "-churn", "0.5", "-pageheapz")
	clitest.Usage(t, run, "-pageheapz and -serve are not available with lifecycle flags", "-restart-on-oom", "-serve", "127.0.0.1:0")
	clitest.Usage(t, run, "-retune-design and -retune-at-ms must be used together", "-retune-at-ms", "5")
	clitest.Usage(t, run, "-retune-design and -retune-at-ms must be used together", "-retune-design", "optimized")
	clitest.Usage(t, run, "-retune-design: ", "-retune-design", "x", "-retune-at-ms", "5")
	clitest.Usage(t, run, "create cpu profile", "-cpuprofile", filepath.Join(dir, "missing", "cpu.prof"))
	if code := run([]string{"-h"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}

// TestRunGoldens pins stdout and every -metrics-out file of three runs
// (a -config feature, a -design point, and a checkpointed run killed at
// half time then resumed) to goldens captured before the shared
// command-line layer existed.
func TestRunGoldens(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "simck")
	for _, tc := range []struct {
		golden, base string
		code         int
		args         []string
	}{
		{"sim-config", "sim_config", 0, []string{"-config", "span-prioritization"}},
		{"sim-design", "sim_design", 0, []string{"-design", "optimized"}},
		{"sim-kill", "sim_ckpt", 3, []string{"-checkpoint-dir", ck, "-kill-frac", "0.5"}},
		{"sim-resume", "sim_ckpt", 0, []string{"-checkpoint-dir", ck, "-resume"}},
	} {
		args := append([]string{"-profile", "redis", "-duration-ms", "20", "-telemetry", "-heapprof",
			"-metrics-out", filepath.Join(dir, tc.base)}, tc.args...)
		clitest.Output(t, run, tc.golden, dir, tc.base, tc.code, args...)
	}
}
