package main

import (
	"io"
	"path/filepath"
	"testing"

	"wsmalloc/internal/cli/clitest"
)

func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, "fleet-ab", newCommand(io.Discard).FlagSet)
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	clitest.Usage(t, run, "flag provided but not defined: -nosuch", "-nosuch")
	clitest.Usage(t, run, `invalid value "abc" for flag -machines`, "-machines", "abc")
	clitest.Usage(t, run, `unknown feature "bogus"`, "-feature", "bogus")
	clitest.Usage(t, run, `unknown feature "baseline"`, "-feature", "baseline")
	clitest.Usage(t, run, "-design: ", "-design", "percpu=warp")
	clitest.Usage(t, run, "-resume needs -checkpoint-dir", "-resume")
	clitest.Usage(t, run, "-kill-frac needs -checkpoint-dir", "-kill-frac", "0.5")
	clitest.Usage(t, run, "-kill-frac 1.5: must be 0 or in (0,1)", "-checkpoint-dir", dir, "-kill-frac", "1.5")
	clitest.Usage(t, run, "-checkpoint-every-ms needs -checkpoint-dir", "-checkpoint-every-ms", "5")
	clitest.Usage(t, run, "-sample -1: must be in (0,1]", "-sample", "-1")
	clitest.Usage(t, run, "-sample 0: must be in (0,1]", "-sample", "0")
	clitest.Usage(t, run, "-sample 1.5: must be in (0,1]", "-sample", "1.5")
	clitest.Usage(t, run, "-churn 3: must be in [0,1]", "-churn", "3")
	clitest.Usage(t, run, "-retune-design and -retune-at-ms must be used together", "-retune-at-ms", "5")
	clitest.Usage(t, run, "-retune-design and -retune-at-ms must be used together", "-retune-design", "optimized")
	clitest.Usage(t, run, "-retune-design: ", "-retune-design", "bogus", "-retune-at-ms", "5")
	clitest.Usage(t, run, "-gwp-dir needs -heapprof", "-gwp-dir", dir)
	clitest.Usage(t, run, `bad -bench-sweep entry "x"`, "-machines", "16", "-duration-ms", "5", "-bench-sweep", "1,x")
	clitest.Usage(t, run, "create cpu profile", "-cpuprofile", filepath.Join(dir, "missing", "cpu.prof"))
	if code := run([]string{"-h"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}

// TestRunGolden pins stdout and every -metrics-out file of a
// telemetry + heap-profile A/B to goldens captured before the shared
// command-line layer existed.
func TestRunGolden(t *testing.T) {
	dir := t.TempDir()
	clitest.Output(t, run, "fleet-ab", dir, "ab_plain", 0, "-machines", "64", "-duration-ms", "20",
		"-telemetry", "-heapprof", "-metrics-out", filepath.Join(dir, "ab_plain"), "-j", "2")
}
