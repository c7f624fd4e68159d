package daemon

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// fuzzConfig is a short observed daemon run with checkpoints in dir.
func fuzzConfig(dir string) Config {
	cfg := DefaultConfig(0xf022)
	cfg.Machines = 8
	cfg.SampleFraction = 0.25
	cfg.MinMachines = 2
	cfg.AllocConfig = core.BaselineConfig()
	cfg.Design = "baseline"
	cfg.TickNs = 1_000_000
	cfg.ChurnPerTick = 0.05
	cfg.RingCapacity = 8
	cfg.CheckpointDir = dir
	return cfg
}

// checkpointedDaemon runs a daemon for three ticks, checkpoints it, and
// returns it (closed) with its checkpoint directory filled.
func checkpointedDaemon(tb testing.TB, dir string) *Daemon {
	tb.Helper()
	d, err := New(fuzzConfig(dir))
	if err != nil {
		tb.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 3; i++ {
		if err := d.Tick(); err != nil {
			tb.Fatalf("tick %d: %v", i+1, err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	return d
}

// FuzzCheckpointDecode enforces the daemon machine checkpoint's
// hostile-input contract: a mutated payload, sealed with a valid header
// so it gets past the checksum to the section decoders, either fails to
// decode or decodes to an allocator that passes CheckInvariants. It
// never panics. The seed corpus is a machine checkpoint of a short
// daemon run, taken in the test so no binary testdata has to be
// regenerated when the state layout moves.
func FuzzCheckpointDecode(f *testing.F) {
	dir := f.TempDir()
	d := checkpointedDaemon(f, dir)
	blob, err := os.ReadFile(d.machinePath(0))
	if err != nil {
		f.Fatal(err)
	}
	payload := blob[snapshot.HeaderSize:]
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	flip := append([]byte(nil), payload...)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)

	proto := d.machines[0]
	topo := topology.New(proto.m.Platform)
	decode := func(payload []byte) (*machine, error) {
		ms := &machine{
			m:     proto.m,
			cfg:   proto.cfg,
			opts:  proto.opts,
			alloc: core.New(proto.cfg, topo),
			churn: rng.New(0),
			carry: telemetry.NewRegistry(),
		}
		ms.drv = workload.NewDriver(ms.m.App, ms.alloc, ms.opts)
		return ms, d.decodeMachine(snapshot.Seal(payload), ms)
	}
	if _, err := decode(payload); err != nil {
		f.Fatalf("the unmutated checkpoint does not decode: %v", err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		ms, err := decode(payload)
		if err != nil {
			return
		}
		if vs := ms.alloc.CheckInvariants(); len(vs) > 0 {
			t.Fatalf("checkpoint decoded without error to a state with %d violations, first: %s", len(vs), vs[0])
		}
	})
}

// TestResumeRejectsPreviousSnapshotVersion: a checkpoint directory
// written under the previous snapshot format version (an earlier
// sampler epoch) must fail with the version error rather than resume
// and silently diverge from an uninterrupted run.
func TestResumeRejectsPreviousSnapshotVersion(t *testing.T) {
	dir := t.TempDir()
	checkpointedDaemon(t, dir)
	blobs, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(blobs) < 2 {
		t.Fatalf("checkpoint blobs %v, err %v", blobs, err)
	}
	for _, p := range blobs {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(blob[4:8], snapshot.Version-1)
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := fuzzConfig(dir)
	cfg.Resume = true
	d, err := New(cfg)
	if err == nil {
		d.Close()
		t.Fatalf("resumed at tick %d from a previous-version checkpoint", d.Status().Tick)
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("resume error %v does not name the version", err)
	}
}
