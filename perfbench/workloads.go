package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/daemon"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// Workload geometry. The fleet_ab shape is the paper's 1% experiment as
// the tracked sweep runs it: a 400-machine catalog with 4% enrolled gives
// 16 machines, each simulated under both arms.
const (
	fleetMachines   = 400
	fleetSample     = 0.04
	fleetDurationNs = 100 * workload.Millisecond
	workers         = 2 // fan-out width: the two cores the benchmark is sized for

	largeProfile    = "image-processing"
	largePlatform   = "gen5-chiplet"
	largeDurationNs = 100 * workload.Millisecond

	// daemonTicks is one daemon_observe unit; it checkpoints on its last
	// tick, the 64-tick cadence the workload specifies.
	daemonTicks     = 64
	checkpointEvery = 64

	// Short versions for the j=1 against j=2 digest check.
	fleetShortNs = 10 * workload.Millisecond
	daemonShort  = 8
)

// unitResult is one cold-start repetition of a workload: the simulation
// after set-up, then the correctness audit.
type unitResult struct {
	wall       time.Duration
	virtualSec float64 // simulated machine-seconds
	ops        int64   // simulated malloc + free calls
	attempted  int64   // allocations attempted plus machine runs
	failed     int64   // allocations refused plus machine runs failed
	audits     int64
	violations int64
	digest     string
	ticks      []float64 // per-Tick wall ms (daemon_observe only)
}

// digestOf is a short hex SHA-256 over parts, each prefixed by its length.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fleetABOptions is the A/B shape of fleet_ab. Telemetry is on so the
// merged registries carry the simulated malloc/free counts and a
// byte-stable export for the digest; every run ends with an audit.
func fleetABOptions(w int, durNs int64) fleet.ABOptions {
	o := fleet.DefaultABOptions()
	o.SampleFraction = fleetSample
	o.DurationNs = durNs
	o.Workers = w
	o.Telemetry = telemetry.Config{Enabled: true}
	o.AuditEveryNs = durNs
	return o
}

// catalogSeed fixes the fleet_ab catalog: which platform and application
// each machine has. The run's seed drives every machine's workload
// stream instead, so runs on different seeds measure the same fleet mix
// and differ only in the random inputs the machines receive.
const catalogSeed = 1

func newFleetAB(seed uint64) (*fleet.Fleet, core.Config, core.Config) {
	f := fleet.New(fleetMachines, catalogSeed)
	r := rng.New(seed)
	for i := range f.Machines {
		f.Machines[i].Seed = r.Uint64()
	}
	return f, core.BaselineConfig(), core.OptimizedConfig()
}

func runFleetAB(seed uint64, w int, durNs int64) (unitResult, error) {
	var u unitResult
	f, control, experiment := newFleetAB(seed)
	opts := fleetABOptions(w, durNs)
	t0 := time.Now()
	res, err := f.ABTestErr(control, experiment, opts)
	u.wall = time.Since(t0)
	if err != nil {
		return u, fmt.Errorf("fleet_ab: %w", err)
	}
	runs := int64(2 * res.Fleet.Machines)
	u.virtualSec = float64(runs) * float64(durNs) / 1e9
	snaps := res.Telemetry.Snapshots(durNs)
	for _, s := range snaps {
		u.ops += gauge(s, "mallocs") + gauge(s, "frees")
		u.attempted += gauge(s, "mallocs")
	}
	u.attempted += res.Chaos.AllocFailures + runs
	u.failed = res.Chaos.AllocFailures
	u.audits = res.Chaos.Audits
	u.violations = res.Chaos.Violations
	if u.audits < runs {
		return u, fmt.Errorf("fleet_ab: %d audits for %d machine runs", u.audits, runs)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%#v\n%#v\n%#v\n%#v\n", res.Fleet, res.PerApp, res.Chaos, res.Frag)
	if err := telemetry.WritePrometheus(&b, snaps...); err != nil {
		return u, err
	}
	u.digest = digestOf(b.Bytes())
	return u, nil
}

func gauge(s telemetry.Snapshot, name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

func platformByName(name string) topology.Platform {
	for _, p := range topology.Catalog {
		if p.Name == name {
			return p
		}
	}
	panic("perfbench: unknown platform " + name)
}

// newLarge builds the large_objects machine: one allocator under the
// optimized design and a driver for the image-processing profile.
func newLarge(seed uint64, durNs int64) (*core.Allocator, *workload.Driver, workload.Profile, workload.Options) {
	p, ok := workload.ByName(largeProfile)
	if !ok {
		panic("perfbench: unknown profile " + largeProfile)
	}
	a := core.New(core.OptimizedConfig(), topology.New(platformByName(largePlatform)))
	opts := workload.DefaultOptions(seed)
	opts.Duration = durNs
	return a, workload.NewDriver(p, a, opts), p, opts
}

func runLarge(seed uint64, durNs int64) (unitResult, error) {
	var u unitResult
	a, d, _, opts := newLarge(seed, durNs)
	t0 := time.Now()
	res := d.Run()
	u.wall = time.Since(t0)

	u.virtualSec = float64(opts.Duration) / 1e9
	u.ops = res.Ops + res.Frees
	u.attempted = res.Ops + res.AllocFailures + 1
	u.failed = res.AllocFailures
	u.audits = 1
	u.violations = int64(len(a.CheckInvariants()))
	u.digest = digestOf([]byte(fmt.Sprintf("%#v", res)))
	return u, nil
}

// daemonConfig is the daemon_observe configuration: the default daemon
// with GWP collection into a warehouse and checkpoints under dir.
func daemonConfig(seed uint64, w int, dir string) daemon.Config {
	cfg := daemon.DefaultConfig(seed)
	cfg.Workers = w
	cfg.GWP.Enabled = true
	cfg.GWP.Dir = filepath.Join(dir, "gwp")
	cfg.CheckpointDir = filepath.Join(dir, "ckpt")
	return cfg
}

// runDaemon builds a daemon in a fresh directory under scratch and drives
// its ticks, checkpointing every checkpointEvery ticks. The directory is
// removed before returning.
func runDaemon(seed uint64, w, ticks int, scratch string) (unitResult, error) {
	var u unitResult
	dir, err := os.MkdirTemp(scratch, "daemon-")
	if err != nil {
		return u, err
	}
	defer os.RemoveAll(dir)
	cfg := daemonConfig(seed, w, dir)

	d, err := daemon.New(cfg)
	if err != nil {
		return u, fmt.Errorf("daemon_observe: %w", err)
	}
	defer d.Close()

	for i := 1; i <= ticks; i++ {
		t := time.Now()
		if err := d.Tick(); err != nil {
			return u, fmt.Errorf("daemon_observe: tick %d: %w", i, err)
		}
		if i%checkpointEvery == 0 || i == ticks {
			if err := d.Checkpoint(); err != nil {
				return u, fmt.Errorf("daemon_observe: checkpoint at tick %d: %w", i, err)
			}
		}
		el := time.Since(t)
		u.wall += el
		u.ticks = append(u.ticks, float64(el)/1e6)
	}

	st := d.Status()
	u.virtualSec = float64(st.VirtualNs) * float64(st.Machines) / 1e9
	snap, err := daemonFleetSnapshot(d)
	if err != nil {
		return u, err
	}
	// The carry registry keeps the malloc histogram of processes that
	// churn killed; the frees gauge covers the live processes.
	mallocs := histTotal(snap, "alloc_size_bytes")
	u.ops = mallocs + gauge(snap, "frees")
	u.attempted = mallocs + gauge(snap, "oom_errors") + int64(st.Machines)
	u.failed = gauge(snap, "oom_errors") + int64(st.MachinesStalled)

	n, viol, err := auditDaemonCheckpoint(cfg)
	if err != nil {
		return u, err
	}
	u.audits, u.violations = n, viol

	st.UptimeSec = 0
	sj, err := json.Marshal(st)
	if err != nil {
		return u, err
	}
	files, err := hashDir(dir)
	if err != nil {
		return u, err
	}
	u.digest = digestOf(sj, files)
	return u, nil
}

// daemonFleetSnapshot reads the fleet-merged registry through the
// daemon's own /metricsz JSON export.
func daemonFleetSnapshot(d *daemon.Daemon) (telemetry.Snapshot, error) {
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz?format=json", nil))
	var doc struct {
		Snapshots []telemetry.Snapshot `json:"snapshots"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("daemon_observe: /metricsz: %w", err)
	}
	if len(doc.Snapshots) != 1 {
		return telemetry.Snapshot{}, fmt.Errorf("daemon_observe: /metricsz has %d snapshots, want 1", len(doc.Snapshots))
	}
	return doc.Snapshots[0], nil
}

func histTotal(s telemetry.Snapshot, name string) int64 {
	for _, h := range s.Histograms {
		if h.Name == name {
			return int64(h.Total)
		}
	}
	return 0
}

// hashDir returns the SHA-256 of every file under dir, taken in path
// order with each file's relative name and size.
func hashDir(dir string) ([]byte, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		if err := hashFile(h, dir, p); err != nil {
			return nil, err
		}
	}
	return h.Sum(nil), nil
}

func hashFile(h io.Writer, dir, p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	rel, _ := filepath.Rel(dir, p)
	fmt.Fprintf(h, "%s %d\n", rel, info.Size())
	_, err = io.Copy(h, f)
	return err
}

// auditDaemonCheckpoint restores every machine's allocator from the
// daemon's last checkpoint and runs the invariant auditor on it. The
// machine blob layout is the daemon's: a fingerprint, the lifecycle
// header, the churn RNG, the carry registry, then the allocator.
func auditDaemonCheckpoint(cfg daemon.Config) (audits, violations int64, err error) {
	for ord, m := range daemonMachines(cfg) {
		blob, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, fmt.Sprintf("m%04d.ckpt", ord)))
		if err != nil {
			return audits, violations, fmt.Errorf("daemon_observe: audit: %w", err)
		}
		acfg := daemonMachineConfig(cfg, ord, m)
		a := core.New(acfg, topology.New(m.Platform))
		dec, err := snapshot.NewDecoder(blob)
		if err != nil {
			return audits, violations, fmt.Errorf("daemon_observe: audit machine %d: %w", m.ID, err)
		}
		dec.Section("daemon.machine")
		fp := dec.String()
		want := fmt.Sprintf("machine=%d seed=%#x platform=%s app=%s", m.ID, m.Seed, m.Platform.Name, m.App.Name)
		if dec.Err() == nil && fp != want {
			return audits, violations, fmt.Errorf("daemon_observe: audit: blob %d is %q, want %q", ord, fp, want)
		}
		_ = dec.String() // design
		_ = dec.Bool()   // started
		for k := 0; k < 5; k++ {
			_ = dec.I64() // restarts, churn, oom, burst kills, prevOps
		}
		_ = dec.F64() // prevMallocNs
		rng.New(0).DecodeState(dec)
		telemetry.NewRegistry().DecodeState(dec)
		if err := a.DecodeState(dec); err != nil {
			return audits, violations, fmt.Errorf("daemon_observe: audit machine %d: %w", m.ID, err)
		}
		if dec.Err() != nil {
			return audits, violations, fmt.Errorf("daemon_observe: audit machine %d: %w", m.ID, dec.Err())
		}
		audits++
		violations += int64(len(a.CheckInvariants()))
	}
	return audits, violations, nil
}

// daemonMachines lists the machines a daemon with cfg enrols, in
// enrolment order.
func daemonMachines(cfg daemon.Config) []fleet.Machine {
	cat := fleet.New(cfg.Machines, cfg.Seed)
	var ms []fleet.Machine
	for _, i := range strideIndices(len(cat.Machines), cfg.SampleFraction, cfg.MinMachines) {
		ms = append(ms, cat.Machines[i])
	}
	return ms
}

// daemonMachineConfig is the allocator configuration the daemon gives
// its ord-th machine when it observes with GWP on: telemetry everywhere,
// an event trace on machine 0, and the sparse GWP heap profiler.
func daemonMachineConfig(cfg daemon.Config, ord int, m fleet.Machine) core.Config {
	acfg := cfg.AllocConfig
	acfg.Telemetry = telemetry.Config{Enabled: true}
	if ord == 0 {
		acfg.Telemetry.TraceCapacity = cfg.TraceCapacity
	}
	acfg.HeapProfile.Enabled = true
	acfg.HeapProfile.Seed = m.Seed
	acfg.HeapProfile.SampleIntervalBytes = cfg.GWP.WithDefaults().SampleIntervalBytes
	return acfg
}

// strideIndices is the enrolment rule shared by fleet A/B and the daemon:
// n = frac of total, floored at minMachines, strided evenly.
func strideIndices(total int, frac float64, minMachines int) []int {
	n := int(float64(total) * frac)
	n = max(n, minMachines, 1)
	n = min(n, total)
	stride := total / n
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i * stride
	}
	return idx
}

// scratchDir is where runs keep temporary files: inside the checkout's
// build directory, never outside it.
func scratchDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}
