package main

import (
	"io"
	"path/filepath"
	"testing"

	"wsmalloc/internal/cli/clitest"
)

func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, "experiments", newCommand(io.Discard).FlagSet)
}

func TestUsageErrors(t *testing.T) {
	clitest.Usage(t, run, "flag provided but not defined: -nosuch", "-nosuch")
	clitest.Usage(t, run, "-design: ", "-design", "baseline;bogus")
	clitest.Usage(t, run, `unknown scale "huge"`, "-scale", "huge")
	clitest.Usage(t, run, `unknown experiment "nosuch"`, "-scale", "smoke", "nosuch")
	if code := run([]string{"-h"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}

// TestRunGolden pins stdout and every -metrics-out file of a smoke-scale
// fig9 run to goldens captured before the shared command-line layer
// existed.
func TestRunGolden(t *testing.T) {
	dir := t.TempDir()
	clitest.Output(t, run, "experiments-fig9", dir, "exp", 0, "-scale", "smoke", "-telemetry", "-heapprof",
		"-metrics-out", filepath.Join(dir, "exp"), "fig9")
}

// TestAblationGolden pins the smoke-scale stdout of the three ablations,
// the only callers that set the list count, the lifetime threshold and
// the heterogeneous front-end's capacity outside the policy registry.
func TestAblationGolden(t *testing.T) {
	clitest.Output(t, run, "experiments-ablations", t.TempDir(), "exp", 0,
		"-scale", "smoke", "ablation-l", "ablation-c", "ablation-capacity")
}
