package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/daemon"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/sched"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// machineRun is one machine run whose op stream the traced run replays:
// the workload's profile, allocator design, platform and driver options.
type machineRun struct {
	label    string
	profile  workload.Profile
	cfg      core.Config
	platform topology.Platform
	opts     workload.Options
}

// fleetMachineOptions are the driver options ABTest gives machine m.
func fleetMachineOptions(ab fleet.ABOptions, m fleet.Machine) workload.Options {
	o := workload.DefaultOptions(m.Seed)
	o.Duration = ab.DurationNs
	o.TimeWarpGamma = ab.TimeWarpGamma
	o.AuditEveryNs = ab.AuditEveryNs
	return o
}

// daemonMachineOptions runs one daemon machine through a unit's worth of
// ticks in a single driver run.
func daemonMachineOptions(cfg daemon.Config, m fleet.Machine) workload.Options {
	o := workload.DefaultOptions(m.Seed)
	o.Duration = daemonTicks * cfg.TickNs
	o.DynamicsPeriodNs = cfg.DiurnalPeriodNs
	return o
}

// replayMachines picks the machine runs each workload's traced run
// replays: fleet_ab's first enrolled machine under both arms, the
// large_objects machine, and daemon_observe's first enrolled machine
// over one unit's worth of ticks.
func replayMachines(wl string, seed uint64) []machineRun {
	switch wl {
	case "fleet_ab":
		f, control, experiment := newFleetAB(seed)
		ab := fleetABOptions(workers, fleetDurationNs)
		m := f.Machines[strideIndices(len(f.Machines), ab.SampleFraction, ab.MinMachines)[0]]
		o := fleetMachineOptions(ab, m)
		control.Telemetry, experiment.Telemetry = ab.Telemetry, ab.Telemetry
		return []machineRun{
			{"control", m.App, control, m.Platform, o},
			{"experiment", m.App, experiment, m.Platform, o},
		}
	case "large_objects":
		_, _, p, o := newLarge(seed, largeDurationNs)
		return []machineRun{{"machine", p, core.OptimizedConfig(), platformByName(largePlatform), o}}
	default:
		cfg := daemonConfig(seed, workers, "")
		m := daemonMachines(cfg)[0]
		return []machineRun{{"machine0", m.App, daemonMachineConfig(cfg, 0, m), m.Platform, daemonMachineOptions(cfg, m)}}
	}
}

// layerRun is one traced run: its spans, the per-layer metrics it has
// measured so far, and the sums the metrics and the ledger derive from.
type layerRun struct {
	wl  string
	tr  *tracer
	m   map[string]float64
	out io.Writer

	refWall, untracedWall, tracedWall float64 // ns, medians over replayReps
	busyNs, phaseNs                   float64 // fleet probe at 2 workers: summed machine time, phase wall
	rngNs                             float64 // every draw, thread picks included
	drawNs                            float64 // size, lifetime and arrival draws
	drawCount                         int64
	mallocs                           int64
	modelNs                           float64
	fragSum, coverageSum              float64
	hits, misses                      int64
	tcHits, tcMisses                  int64
	spansCreated, heapAllocs          int64
	machinesReplayed                  int
	attempted, failed                 int64
}

// traceWorkload runs the per-layer probes for one workload under a fresh
// tracer. The returned run holds the spans even when a probe failed.
func traceWorkload(wl string, seed uint64, scratch string, out io.Writer) (*layerRun, error) {
	lr := &layerRun{
		wl:  wl,
		tr:  newTracer(fmt.Sprintf("%s-%d-%x", wl, seed, time.Now().UnixNano())),
		m:   map[string]float64{},
		out: out,
	}
	root := lr.tr.begin("workload."+wl, -1)
	var snapSrc *machineState
	for _, mr := range replayMachines(wl, seed) {
		st, err := lr.replayMachine(mr, root)
		if err != nil {
			return lr, err
		}
		snapSrc = st
	}
	lr.finishReplay()
	// Every probe runs on every workload, so each layer metric is a
	// measurement wherever it is read; the ledger charges a workload only
	// with the layers it runs.
	if err := lr.fleetProbe(seed, root); err != nil {
		return lr, err
	}
	if err := lr.snapshotProbe(snapSrc, root); err != nil {
		return lr, err
	}
	if err := lr.daemonProbe(seed, scratch, root); err != nil {
		return lr, err
	}
	lr.tr.end(root)
	lr.printLedger()
	return lr, nil
}

// machineState is a finished driver run kept for the snapshot probe.
type machineState struct {
	mr    machineRun
	alloc *core.Allocator
	drv   *workload.Driver
}

// replayReps is how many times the traced run repeats the driver run
// and both replays of each machine, interleaved; walls are the medians.
const replayReps = 5

// replayMachine runs mr through the real driver (the reference), then
// replays the same calls untraced and traced on fresh allocators, and
// times the driver's random draws in batches.
func (lr *layerRun) replayMachine(mr machineRun, root int32) (*machineState, error) {
	tr := lr.tr
	newAlloc := func() *core.Allocator { return core.New(mr.cfg, topology.New(mr.platform)) }
	s := genOps(mr.profile, mr.platform.NumCPUs(), mr.opts)

	var last *machineState
	var traced replayStats
	var ref workload.Result
	var refWalls, untracedWalls, tracedWalls []float64
	for rep := range replayReps {
		alloc := newAlloc()
		drv := workload.NewDriver(mr.profile, alloc, mr.opts)
		runtime.GC()
		sp := tr.begin("workload.Driver.Run", root)
		t0 := time.Now()
		ref = drv.Run()
		refWalls = append(refWalls, float64(time.Since(t0)))
		tr.end(sp)
		lr.attempted += ref.Ops + ref.AllocFailures + 1
		lr.failed += ref.AllocFailures
		if v := alloc.CheckInvariants(); len(v) > 0 {
			return nil, fmt.Errorf("%s %s: driver run audit: %v", lr.wl, mr.label, v[0])
		}
		last = &machineState{mr, alloc, drv}

		runtime.GC()
		untraced, err := replay(&s, newAlloc(), mr.cfg.Latency, nil, -1)
		if err != nil {
			return nil, err
		}
		untracedWalls = append(untracedWalls, float64(untraced.wall))

		runtime.GC()
		sp = tr.begin("core.replay", root)
		traced, err = replay(&s, newAlloc(), mr.cfg.Latency, tr, sp)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tracedWalls = append(tracedWalls, float64(traced.wall))
		if rep == 0 {
			tr.appendSpans(traced.spans) // later reps only time the replay
		}
		if err := checkFidelity(traced, ref); err != nil {
			return nil, fmt.Errorf("%s %s: %w", lr.wl, mr.label, err)
		}
	}
	for _, c := range fidelityChecks(traced, ref) {
		fmt.Fprintf(lr.out, "fidelity %s %-20s replay %-12g driver %g\n", mr.label, c.name, c.got, c.want)
	}

	drawNs := timeDraws(mr.profile, mr.opts.Seed, s.draws)
	var rngNs float64
	for k, ns := range drawNs {
		rngNs += ns
		if drawKind(k) != drawThread {
			lr.drawNs += ns
			lr.drawCount += s.draws[k]
		}
	}
	refWall, untracedWall, tracedWall := median(refWalls), median(untracedWalls), median(tracedWalls)
	fmt.Fprintf(lr.out, "replay %s %s (median of %d): driver run %.1f ms, replay untraced %.1f ms, traced %.1f ms, draws %.1f ms\n",
		lr.wl, mr.label, replayReps, refWall/1e6, untracedWall/1e6, tracedWall/1e6, rngNs/1e6)
	lr.refWall += refWall
	lr.untracedWall += untracedWall
	lr.tracedWall += tracedWall
	lr.rngNs += rngNs
	lr.mallocs += traced.mallocs
	lr.modelNs += traced.modelMallocNs
	e := traced.end
	lr.fragSum += e.FragmentationRatio()
	lr.coverageSum += e.HugepageCoverage
	lr.hits += e.FrontEnd.AllocHits
	lr.misses += e.FrontEnd.AllocMisses
	lr.tcHits += e.Transfer.Hits
	lr.tcMisses += e.Transfer.Misses
	lr.spansCreated += e.CFLSpansCreated
	lr.heapAllocs += e.Heap.Allocs
	lr.machinesReplayed++
	return last, nil
}

// drawBatch is how many draws one timed batch makes: long enough that
// the two clock reads around it are noise, short enough to give many
// batches for a median.
const drawBatch = 4096

// drawSink keeps the timed draws observable so the compiler keeps them.
var drawSink float64

// timeDraws times each kind of draw the driver makes, from the profile's
// own distributions, and returns the estimated host ns the driver run
// spent on each kind: the median batch cost per draw times the count.
func timeDraws(p workload.Profile, seed uint64, counts [numDrawKinds]int64) [numDrawKinds]float64 {
	r := rng.New(seed ^ 0x5eed)
	pre := p.PreloadDist
	if pre == nil {
		pre = workload.DefaultPreloadDist()
	}
	sizes := make([]int, drawBatch)
	for i := range sizes {
		sizes[i] = max(int(p.SizeDist.Sample(r)), 1)
	}
	var sink float64
	var total [numDrawKinds]float64
	for k := drawKind(0); k < numDrawKinds; k++ {
		if counts[k] == 0 {
			continue
		}
		batches := int(min(max(counts[k]/drawBatch, 5), 41))
		per := make([]float64, batches)
		for b := range per {
			t0 := time.Now()
			switch k {
			case drawSize:
				for range drawBatch {
					sink += p.SizeDist.Sample(r)
				}
			case drawPreload:
				for range drawBatch {
					sink += pre.Sample(r)
				}
			case drawLifetime:
				for _, sz := range sizes {
					sink += float64(p.Lifetime.Sample(r, sz))
				}
			case drawArrival:
				for range drawBatch {
					sink += r.ExpFloat64()
				}
			case drawThread:
				for range drawBatch {
					sink += r.Float64()
				}
			}
			per[b] = float64(time.Since(t0)) / drawBatch
		}
		total[k] = median(per) * float64(counts[k])
	}
	drawSink = sink
	return total
}

// finishReplay derives the replay-based metrics once every machine of
// the workload has been replayed.
func (lr *layerRun) finishReplay() {
	m, tr := lr.m, lr.tr
	mallocNs := append(append(tr.durations(spanHit), tr.durations(spanMiss)...), tr.durations(spanLargeMal)...)
	freeNs := append(tr.durations(spanFree), tr.durations(spanLargeFree)...)
	m["core.malloc_ns_p50"] = median(mallocNs)
	m["core.malloc_ns_p99"] = mustPercentile(mallocNs, 0.99)
	m["core.free_ns_p50"] = median(freeNs)
	m["core.free_ns_p99"] = mustPercentile(freeNs, 0.99)
	m["core.tick_ns"] = mean(tr.durations(spanTick))
	m["core.model_malloc_ns"] = ratio(lr.modelNs, float64(lr.mallocs))
	n := float64(lr.machinesReplayed)
	m["core.frag_ratio"] = lr.fragSum / n
	m["percpu.hit_ns"] = mean(tr.durations(spanHit))
	m["percpu.miss_ns"] = mean(tr.durations(spanMiss))
	m["percpu.alloc_miss_ratio"] = ratio(float64(lr.misses), float64(lr.hits+lr.misses))
	m["transfercache.hit_ratio"] = ratio(float64(lr.tcHits), float64(lr.tcHits+lr.tcMisses))
	m["centralfreelist.spans_created"] = float64(lr.spansCreated)
	m["pageheap.large_alloc_ns"] = mean(tr.durations(spanLargeMal))
	m["pageheap.large_free_ns"] = mean(tr.durations(spanLargeFree))
	m["pageheap.allocs"] = float64(lr.heapAllocs)
	m["pageheap.hugepage_coverage"] = lr.coverageSum / n
	m["rng.draw_ns"] = ratio(lr.drawNs, float64(lr.drawCount))
	m["workload.self_frac"] = ratio(lr.refWall-lr.rngNs-lr.untracedWall, lr.refWall)
	m["trace.overhead_frac"] = ratio(lr.tracedWall-lr.untracedWall, lr.untracedWall)
}

// mustPercentile is percentile for a sample set the replay guarantees is
// large (every replay makes tens of thousands of calls); a refusal there
// is reported as 0 and flagged on stderr.
func mustPercentile(xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return v
}

// abShape is the A/B experiment the fleet probe runs for workload wl:
// fleet_ab's own; for large_objects its one machine under both designs;
// for daemon_observe its enrolled machines over one unit's virtual time,
// observed as the daemon observes them, under the daemon's design in both
// arms. Only fleet_ab audits in-run, as only its workload does.
func abShape(wl string, seed uint64) (*fleet.Fleet, core.Config, core.Config, fleet.ABOptions) {
	if wl == "fleet_ab" {
		f, control, experiment := newFleetAB(seed)
		return f, control, experiment, fleetABOptions(workers, fleetDurationNs)
	}
	ab := fleet.DefaultABOptions()
	ab.SampleFraction = 1
	ab.Workers = workers
	ab.TimeWarpGamma = workload.DefaultOptions(0).TimeWarpGamma
	if wl == "large_objects" {
		_, _, p, o := newLarge(seed, largeDurationNs)
		ab.MinMachines = 1
		ab.DurationNs = o.Duration
		m := fleet.Machine{Platform: platformByName(largePlatform), App: p, Seed: o.Seed}
		return &fleet.Fleet{Machines: []fleet.Machine{m}}, core.BaselineConfig(), core.OptimizedConfig(), ab
	}
	cfg := daemonConfig(seed, workers, "")
	ms := daemonMachines(cfg)
	ab.MinMachines = len(ms)
	ab.DurationNs = daemonTicks * cfg.TickNs
	ab.Telemetry = telemetry.Config{Enabled: true}
	ab.HeapProfile = heapprof.Config{Enabled: true, SampleIntervalBytes: cfg.GWP.WithDefaults().SampleIntervalBytes}
	return &fleet.Fleet{Machines: ms}, cfg.AllocConfig, cfg.AllocConfig, ab
}

// abArmConfig is the configuration ABTest runs one arm of machine m
// under: the arm's design with the experiment's telemetry and a heap
// profiler seeded per machine.
func abArmConfig(cfg core.Config, ab fleet.ABOptions, m fleet.Machine) core.Config {
	if ab.Telemetry.Enabled {
		cfg.Telemetry = ab.Telemetry
	}
	if ab.HeapProfile.Enabled {
		cfg.HeapProfile = ab.HeapProfile
		cfg.HeapProfile.Seed ^= m.Seed
	}
	return cfg
}

// fleetProbe runs the workload's A/B experiment through fleet.ABTestErr,
// then times the same machine pairs through fleet.RunMachineOpts under
// sched.Map, at 2 workers and then at 1, with a span per machine. The
// experiment's wall minus the 2-worker phase is its reduce.
func (lr *layerRun) fleetProbe(seed uint64, root int32) error {
	f, control, experiment, ab := abShape(lr.wl, seed)
	type task struct {
		m    fleet.Machine
		cfgs [2]core.Config
		opts workload.Options
	}
	var tasks []task
	for _, i := range strideIndices(len(f.Machines), ab.SampleFraction, ab.MinMachines) {
		m := f.Machines[i]
		tasks = append(tasks, task{m, [2]core.Config{abArmConfig(control, ab, m), abArmConfig(experiment, ab, m)}, fleetMachineOptions(ab, m)})
	}
	runtime.GC()
	sp := lr.tr.begin("fleet.ABTest", root)
	t0 := time.Now()
	if _, err := f.ABTestErr(control, experiment, ab); err != nil {
		return err
	}
	abWall := time.Since(t0)
	lr.tr.end(sp)

	phase := func(name string, w int) (time.Duration, []float64, error) {
		runtime.GC()
		sp := lr.tr.begin(name, root)
		secs := make([]float64, len(tasks))
		t0 := time.Now()
		err := sched.Map(context.Background(), len(tasks), w, func(i int) error {
			ms := lr.tr.begin("fleet.machine", sp)
			t := time.Now()
			defer func() {
				secs[i] = time.Since(t).Seconds()
				lr.tr.end(ms)
			}()
			for _, cfg := range tasks[i].cfgs {
				res := fleet.RunMachineOpts(tasks[i].m, cfg, tasks[i].opts)
				if res.Result.AllocFailures > 0 || len(res.Result.Violations) > 0 {
					return fmt.Errorf("machine %d: %d refused allocations, %d audit violations",
						tasks[i].m.ID, res.Result.AllocFailures, len(res.Result.Violations))
				}
			}
			return nil
		})
		wall := time.Since(t0)
		lr.tr.end(sp)
		return wall, secs, err
	}
	wall2, secs, err := phase("sched.Map_j2", workers)
	if err != nil {
		return err
	}
	wall1, _, err := phase("sched.Map_j1", 1)
	if err != nil {
		return err
	}
	lr.attempted += int64(6 * len(tasks)) // two runs per task in each of three passes
	switch lr.wl {
	case "fleet_ab":
		lr.busyNs, lr.phaseNs = sum(secs)*1e9, float64(wall2)
	case "daemon_observe":
		// The daemon runs each machine once where the pair runs it twice.
		lr.busyNs, lr.phaseNs = sum(secs)*1e9/2, float64(wall2)/2
	}
	m := lr.m
	m["fleet.machine_s_p50"] = median(secs)
	m["fleet.machine_s_max"] = slices.Max(secs)
	m["sched.straggler_ratio"] = ratio(slices.Max(secs), mean(secs))
	m["sched.busy_frac"] = ratio(sum(secs), float64(workers)*wall2.Seconds())
	m["sched.speedup_j2"] = ratio(wall1.Seconds(), wall2.Seconds())
	m["fleet.reduce_ms"] = float64(abWall-wall2) / 1e6
	return nil
}

// snapshotReps is how many times the snapshot probe encodes and decodes;
// the median is reported.
const snapshotReps = 5

// snapshotProbe encodes the end-of-run allocator and driver of a replayed
// machine with their EncodeState methods and decodes the blob into a
// fresh pair, as a checkpoint and a resume do.
func (lr *layerRun) snapshotProbe(ms *machineState, root int32) error {
	var blob []byte
	var enc, dec []float64
	for i := 0; i < snapshotReps; i++ {
		sp := lr.tr.begin("snapshot.encode", root)
		t0 := time.Now()
		e := snapshot.NewEncoder()
		ms.alloc.EncodeState(e)
		ms.drv.EncodeState(e)
		blob = e.Finish()
		enc = append(enc, float64(time.Since(t0))/1e6)
		lr.tr.end(sp)

		a := core.New(ms.mr.cfg, topology.New(ms.mr.platform))
		d := workload.NewDriver(ms.mr.profile, a, ms.mr.opts)
		sp = lr.tr.begin("snapshot.decode", root)
		t0 = time.Now()
		dc, err := snapshot.NewDecoder(blob)
		if err == nil {
			err = a.DecodeState(dc)
		}
		if err == nil {
			err = d.DecodeState(dc)
		}
		dec = append(dec, float64(time.Since(t0))/1e6)
		lr.tr.end(sp)
		if err != nil {
			return fmt.Errorf("snapshot probe: %w", err)
		}
		if got, want := a.Stats(), ms.alloc.Stats(); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			return fmt.Errorf("snapshot probe: decoded allocator stats differ from the encoded allocator")
		}
	}
	lr.m["snapshot.encode_ms"] = median(enc)
	lr.m["snapshot.decode_ms"] = median(dec)
	lr.m["snapshot.bytes"] = float64(len(blob))
	return nil
}

// daemonProbe advances a bare daemon, an observing daemon and an
// observing daemon with GWP through the same ticks, one after another
// from a collected heap so only one daemon's state is alive at a time,
// then checkpoints the GWP daemon.
func (lr *layerRun) daemonProbe(seed uint64, scratch string, root int32) error {
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	full := daemonConfig(seed, workers, dir)
	observe := daemon.DefaultConfig(seed)
	observe.Workers = workers
	bare := observe
	bare.Observe, bare.HeapProfile, bare.TraceCapacity = false, false, 0

	var ckpt float64
	arm := func(name string, cfg daemon.Config) ([]float64, error) {
		runtime.GC()
		d, err := daemon.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("daemon probe %s: %w", name, err)
		}
		defer d.Close()
		var ms []float64
		for t := 1; t <= daemonTicks; t++ {
			sp := lr.tr.begin("daemon.Tick_"+name, root)
			t0 := time.Now()
			if err := d.Tick(); err != nil {
				return nil, fmt.Errorf("daemon probe %s tick %d: %w", name, t, err)
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
			lr.tr.end(sp)
		}
		if cfg.CheckpointDir != "" {
			sp := lr.tr.begin("daemon.Checkpoint", root)
			t0 := time.Now()
			if err := d.Checkpoint(); err != nil {
				return nil, err
			}
			ckpt = float64(time.Since(t0)) / 1e6
			lr.tr.end(sp)
		}
		return ms, nil
	}
	bareMs, err := arm("bare", bare)
	if err != nil {
		return err
	}
	observeMs, err := arm("observe", observe)
	if err != nil {
		return err
	}
	gwpMs, err := arm("gwp", full)
	if err != nil {
		return err
	}

	collectEvery := full.GWP.WithDefaults().CollectEveryTicks
	var plain, collect []float64
	for i, v := range gwpMs {
		if (i+1)%collectEvery == 0 {
			collect = append(collect, v)
		} else {
			plain = append(plain, v)
		}
	}
	ckptBytes, err := dirSize(full.CheckpointDir, "")
	if err != nil {
		return err
	}
	winBytes, err := dirSize(full.GWP.Dir, "raw-")
	if err != nil {
		return err
	}
	m := lr.m
	m["daemon.tick_ms"] = median(plain)
	m["daemon.observe_overhead_frac"] = ratio(median(observeMs), median(bareMs)) - 1
	m["gwp.overhead_frac"] = ratio(sum(gwpMs), sum(observeMs)) - 1
	m["gwp.collect_ms"] = median(collect) - median(plain)
	m["gwp.window_bytes"] = ratio(float64(winBytes), float64(len(collect)))
	m["daemon.checkpoint_ms"] = ckpt
	m["daemon.checkpoint_bytes"] = float64(ckptBytes)
	lr.attempted += 3 * daemonTicks
	return nil
}

// dirSize sums the sizes of the files in dir whose names start with
// prefix.
func dirSize(dir, prefix string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// ledger is the workload's host time split by layer, in the spirit of
// the paper's per-tier malloc cycle breakdown. The machine-run layers are
// the replayed machines' shares, scaled to the machine time the workload
// spends (the fleet probe's summed machine seconds when it fans out);
// the fleet and daemon rows are measured at their own level.
func (lr *layerRun) ledger(self map[string]float64) []ledgerRow {
	// Scale the traced per-call spans to the untraced replay's wall, so
	// the clock reads the spans cost are not charged to any layer.
	scale := ratio(lr.untracedWall, callSelfNs(self))
	rows := []ledgerRow{
		{"rng", lr.rngNs},
		{"workload", lr.refWall - lr.rngNs - lr.untracedWall},
		{"core+percpu malloc hit", self[spanHit] * scale},
		{"core+percpu+tc+cfl+pageheap malloc miss", self[spanMiss] * scale},
		{"core+percpu+tc+cfl free", self[spanFree] * scale},
		{"pageheap large alloc+free", (self[spanLargeMal] + self[spanLargeFree]) * scale},
		{"core.tick", self[spanTick] * scale},
	}
	if lr.busyNs > 0 {
		f := lr.busyNs / lr.refWall
		for i := range rows {
			rows[i].ns *= f
		}
		rows = append(rows, ledgerRow{"sched.idle", workers*lr.phaseNs - lr.busyNs})
	}
	if lr.wl == "fleet_ab" {
		rows = append(rows, ledgerRow{"fleet.reduce", lr.m["fleet.reduce_ms"] * 1e6})
	}
	if lr.wl == "daemon_observe" {
		rows = append(rows,
			ledgerRow{"telemetry+heapprof", self["daemon.Tick_observe"] - self["daemon.Tick_bare"]},
			ledgerRow{"gwp", self["daemon.Tick_gwp"] - self["daemon.Tick_observe"]},
			ledgerRow{"daemon.checkpoint", self["daemon.Checkpoint"]})
	}
	return rows
}

// callSelfNs sums the self time of the replay's per-call spans.
func callSelfNs(self map[string]float64) float64 {
	var ns float64
	for _, n := range callSpans {
		ns += self[n]
	}
	return ns
}

type ledgerRow struct {
	layer string
	ns    float64
}

// printLedger writes the ledger and checks the workload's stated reason
// against it.
func (lr *layerRun) printLedger() {
	out := lr.out
	self := lr.tr.selfTimes()
	rows := lr.ledger(self)
	var total float64
	for _, r := range rows {
		total += max(r.ns, 0)
	}
	fmt.Fprintf(out, "ledger %s (host self time per layer):\n", lr.wl)
	for _, r := range rows {
		fmt.Fprintf(out, "  %-40s %10.1f ms  %5.1f%%\n", r.layer, r.ns/1e6, 100*ratio(r.ns, total))
	}
	largest := rows[0]
	for _, r := range rows {
		if r.ns > largest.ns {
			largest = r
		}
	}
	switch lr.wl {
	case "fleet_ab":
		fmt.Fprintf(out, "reason fleet_ab: largest layer is %s (want rng): %v\n", largest.layer, largest.layer == "rng")
	case "large_objects":
		share := ratio(self[spanLargeMal]+self[spanLargeFree], callSelfNs(self))
		fmt.Fprintf(out, "reason large_objects: pageheap.large_* share of replayed allocator time %.1f%% (want > 50%%): %v\n", 100*share, share > 0.5)
	}
	charged := slices.ContainsFunc(rows, func(r ledgerRow) bool { return r.layer == "daemon.checkpoint" })
	fmt.Fprintf(out, "reason %s: daemon, gwp and snapshot (checkpoint) costs in the ledger: %v (want %v)\n",
		lr.wl, charged, lr.wl == "daemon_observe")
}
