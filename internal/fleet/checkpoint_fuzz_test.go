package fleet

import (
	"encoding/binary"
	"errors"
	"os"
	"strings"
	"testing"

	"wsmalloc/internal/check"
	"wsmalloc/internal/core"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// fuzzMachineRun is the short machine-arm run whose checkpoints seed
// FuzzCheckpointDecode: halted at half its 4 ms, with the telemetry
// registry, the heap profiler and the shadow heap on so their decoders
// are in the blob too. The resident heap is cut to 8 MiB to keep the
// blob, and so each fuzz execution, small.
func fuzzMachineRun(dir string) (Machine, core.Config, workload.Options, LifecycleOptions) {
	m := New(8, 0xf022).Machines[0]
	m.App.PreloadBytes = 8 << 20
	cfg := core.OptimizedConfig()
	cfg.Telemetry.Enabled = true
	cfg.HeapProfile.Enabled = true
	cfg.HeapProfile.Seed = m.Seed
	cfg.Check = check.DefaultConfig()
	opts := workload.DefaultOptions(m.Seed)
	opts.Duration = 4 * workload.Millisecond
	lc := LifecycleOptions{Arm: "single", Checkpoint: CheckpointOptions{Dir: dir, KillAtFrac: 0.5}}
	return m, cfg, opts, lc
}

// machineBlob runs the fuzz machine to its kill and returns the
// checkpoint it wrote.
func machineBlob(tb testing.TB, dir string) []byte {
	tb.Helper()
	m, cfg, opts, lc := fuzzMachineRun(dir)
	if _, _, halted, err := RunMachineLifecycle(m, cfg, opts, lc); err != nil || !halted {
		tb.Fatalf("kill run: halted=%v err=%v", halted, err)
	}
	blob, err := os.ReadFile(checkpointPath(dir, m, lc.Arm))
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// FuzzCheckpointDecode enforces the machine checkpoint's hostile-input
// contract: a mutated payload, sealed with a valid header so it gets
// past the checksum to the section decoders, either fails to decode or
// decodes to an allocator that passes CheckInvariants. It never panics.
// The seed corpus is a checkpoint of a short run, taken in the test so
// no binary testdata has to be regenerated when the state layout moves.
func FuzzCheckpointDecode(f *testing.F) {
	dir := f.TempDir()
	payload := machineBlob(f, dir)[snapshot.HeaderSize:]
	f.Logf("seed checkpoint payload: %d bytes", len(payload))
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	flip := append([]byte(nil), payload...)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)

	m, cfg, opts, lc := fuzzMachineRun(dir)
	fp := runFingerprint(m, cfg, opts.Duration, lc)
	topo := topology.New(m.Platform)
	decode := func(payload []byte) (*core.Allocator, error) {
		a := core.New(cfg, topo)
		d := workload.NewDriver(m.App, a, opts)
		var ac runAccum
		var pending int64
		var ls LifecycleStats
		return a, decodeMachineCheckpoint(snapshot.Seal(payload), fp, &ac, &pending, &ls, a, d)
	}
	if _, err := decode(payload); err != nil {
		f.Fatalf("the unmutated checkpoint does not decode: %v", err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, err := decode(payload)
		if err != nil {
			return
		}
		if vs := a.CheckInvariants(); len(vs) > 0 {
			t.Fatalf("checkpoint decoded without error to a state with %d violations, first: %s", len(vs), vs[0])
		}
	})
}

// TestResumeRejectsPreviousSnapshotVersion: a checkpoint written under
// the previous snapshot format version (an earlier sampler epoch) must
// fail with the version error rather than resume and silently diverge
// from an uninterrupted run.
func TestResumeRejectsPreviousSnapshotVersion(t *testing.T) {
	dir := t.TempDir()
	blob := machineBlob(t, dir)
	m, cfg, opts, lc := fuzzMachineRun(dir)
	binary.LittleEndian.PutUint32(blob[4:8], snapshot.Version-1)
	if err := os.WriteFile(checkpointPath(dir, m, lc.Arm), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	lc.Checkpoint = CheckpointOptions{Dir: dir, Resume: true}
	rm, _, halted, err := RunMachineLifecycle(m, cfg, opts, lc)
	var me *MachineError
	if !errors.As(err, &me) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("resume from a previous-version blob: err = %v, want a MachineError naming the version", err)
	}
	if halted || rm.Result.Ops != 0 {
		t.Fatalf("previous-version blob resumed: halted=%v ops=%d", halted, rm.Result.Ops)
	}
}
