// Command fleet-ab runs a fleet-wide A/B experiment comparing two
// allocator configurations across a synthetic machine population, the
// §2.2 experimentation framework.
//
// Usage:
//
//	fleet-ab [-machines 400] [-feature all|<name>] [-design POINT] [-seed 1]
//	         [-duration-ms 250] [-sample 0.01] [-j N]
//	         [-chaos-mmap-rate 0] [-chaos-budget-mb 0] [-audit-every-ms 0]
//	         [-telemetry] [-heapprof] [-metrics-out BASE] [-serve :8080]
//	         [-checkpoint-dir DIR] [-checkpoint-every-ms N] [-resume]
//	         [-kill-frac 0.5] [-churn 0.1] [-restart-on-oom] [-retries 3]
//	         [-retune-design POINT -retune-at-ms N] [-gwp-dir DIR]
//	         [-bench-sweep 1,2,4,max] [-bench-out BENCH_fleet.json]
//
// Flags shared with the other run binaries live in internal/cli.
//
// -j bounds how many enrolled machines are simulated concurrently
// (default: all cores; -j 1 is the sequential path). Results are
// bit-identical at any -j for the same seed.
//
// The chaos flags install a deterministic per-machine fault plan in every
// enrolled run (seeded mmap failures and/or a committed-byte budget);
// -audit-every-ms runs the allocator invariant auditor at that virtual
// cadence. The command prints the chaos/audit summary and exits non-zero
// if any audit reported violations.
//
// -telemetry instruments every enrolled machine run and merges both
// arms' metrics registries deterministically (the export is
// byte-identical at any -j). -heapprof attaches the sampled heap
// profiler to every enrolled run and merges each arm's heapz / allocz /
// peakheapz views deterministically, for A/B profile diffing with
// cmd/profdiff. -metrics-out writes BASE.prom, BASE.json and
// BASE.mallocz (plus BASE.heapz and BASE.heapz.json with -heapprof);
// -serve keeps the process alive serving /metricsz and /heapz over
// HTTP.
//
// The lifecycle flags make the run crash-tolerant. -checkpoint-dir
// snapshots every machine's full state (workload cursor, clock, all
// cache tiers, fault/telemetry accumulators) at the -checkpoint-every-ms
// virtual cadence; -kill-frac, in (0,1), stops the whole run at that
// fraction of virtual time after a final checkpoint and exits with code
// 3; a second invocation with -resume finishes the run with exports
// byte-identical to one that was never interrupted, at any -j. -churn
// kills a seeded fraction of machines once mid-run and restarts them
// cold; a restarted machine loses its heap and caches but keeps its
// workload position. -restart-on-oom does the same when an allocation
// fails (pair with -chaos-budget-mb for deterministic OOM kills).
// -retries re-runs a failed machine with capped exponential backoff,
// resuming from its checkpoint.
//
// -bench-sweep benchmarks the execution engine instead of printing
// tables: it runs the same A/B once per listed -j value ("max" = all
// cores), verifies each parallel result is bit-identical to -j 1, and
// writes machines/sec plus speedup-vs-j1 to -bench-out as JSON
// (scripts/bench_fleet.sh wraps this).
//
// Exit codes: 0 success, 1 failure (including audit violations), 2 bad
// flags, 3 a -kill-frac halt to resume.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wsmalloc/internal/cli"
	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/gwp"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// command is fleet-ab's command line, every flag bound onto the value
// it sets.
type command struct {
	*cli.Flags
	opts       fleet.ABOptions
	experiment core.Config
	design     *cli.Design
	seed       uint64
	machines   int
	gwpDir     string
	benchSweep string
	benchOut   string
}

func newCommand(stderr io.Writer) *command {
	c := &command{Flags: cli.New("fleet-ab", stderr), opts: fleet.DefaultABOptions(), experiment: core.BaselineConfig()}
	o := &c.opts
	c.IntVar(&c.machines, "machines", 400, "fleet size")
	c.design = c.Design(&c.experiment, "feature", "all", "experiment arm (the control arm stays baseline): "+
		"all (full redesign) or one of: heterogeneous-percpu-cache, nuca-transfer-cache, span-prioritization, lifetime-aware-filler",
		map[string]policy.DesignPoint{"all": policy.Optimized()})
	c.Seed(&c.seed)
	c.Duration(&o.DurationNs, 250)
	c.Sample(&o.SampleFraction, 0.01)
	c.Workers(&o.Workers)
	c.Float64Var(&o.Chaos.MmapFailureRate, "chaos-mmap-rate", 0, "injected mmap failure probability per MapHuge (0 disables)")
	cli.MiB(c.FlagSet, &o.Chaos.MappedBytesBudget, "chaos-budget-mb", 0, "per-machine committed-byte budget in `MiB` (0 = unlimited)")
	cli.Millis(c.FlagSet, &o.AuditEveryNs, "audit-every-ms", 0, "virtual cadence of invariant audits in `ms` (0 disables)")
	c.Exports(&o.Telemetry, &o.HeapProfile)
	c.HeapProfInterval(&o.HeapProfile)
	c.Serve()
	c.StringVar(&c.gwpDir, "gwp-dir", "", "write both arms into a gwp profile warehouse at this directory (raw-00000000=control, raw-00000001=experiment; needs -heapprof)")
	c.Checkpoint(&o.Checkpoint)
	c.Churn(&o.Churn)
	c.RestartOnOOM(&o.RestartOnOOM)
	c.IntVar(&o.Retry.MaxAttempts, "retries", 1, "max attempts per machine run; retries resume from the machine's checkpoint")
	c.Retune(&o.RetuneAtNs, &o.RetuneDesign)
	c.StringVar(&c.benchSweep, "bench-sweep", "", "comma-separated -j values to benchmark (e.g. 1,2,4,max); writes JSON and exits")
	c.StringVar(&c.benchOut, "bench-out", "BENCH_fleet.json", "benchmark JSON output path (with -bench-sweep)")
	c.Profiling()
	return c
}

func run(args []string, stdout, stderr io.Writer) int {
	c := newCommand(stderr)
	if code, ok := c.Parse(args); !ok {
		return code
	}
	if c.gwpDir != "" && !c.opts.HeapProfile.Enabled {
		return cli.Usage(stderr, "-gwp-dir needs -heapprof")
	}
	stop, err := c.StartProfiling()
	if err != nil {
		return cli.Usage(stderr, "%v", err)
	}
	defer stop()

	opts := &c.opts
	opts.Chaos.Seed = c.seed ^ 0xc4a05c4a
	opts.Retry.BaseDelay, opts.Retry.MaxDelay = 250*time.Millisecond, 5*time.Second
	// Both arms carry their full design-point strings into the merged
	// telemetry and heap-profile exports, so profdiff and dashboards can
	// identify an arm without knowing which -feature/-design spawned it.
	opts.ControlDesign = policy.Baseline().String()
	opts.ExperimentDesign = c.design.Point.String()
	f := fleet.New(c.machines, c.seed)
	control := core.BaselineConfig()

	if c.benchSweep != "" {
		js, err := parseSweep(c.benchSweep)
		if err != nil {
			return cli.Usage(stderr, "%v", err)
		}
		ok, err := runBench(stdout, f, control, c.experiment, *opts, js, c.benchOut, c.seed)
		if err == nil && !ok {
			err = errors.New("bench: parallel result diverged from -j 1")
		}
		return cli.Exit(stderr, err)
	}

	armDesc := "feature=" + c.design.Named
	if c.design.Override {
		armDesc = "design=" + c.design.Point.String()
	}
	fmt.Fprintf(stdout, "fleet A/B: %d machines, %s, %.1f%% sampled, %dms virtual each\n",
		c.machines, armDesc, opts.SampleFraction*100, opts.DurationNs/1e6)
	fmt.Fprintf(stdout, "  control    %s\n  experiment %s\n", opts.ControlDesign, opts.ExperimentDesign)
	res, err := f.ABTestErr(control, c.experiment, *opts)
	if errors.Is(err, fleet.ErrHalted) {
		// Scheduled kill: every machine checkpointed. Exit code 3 so
		// wrappers can distinguish "resume me" from a real failure.
		fmt.Fprintln(stdout, err)
		return cli.ExitHalted
	}
	if err != nil {
		return cli.Exit(stderr, err)
	}
	fmt.Fprintln(stdout, res.Fleet.String())
	for _, row := range res.PerApp {
		fmt.Fprintln(stdout, row.String())
	}
	ch := res.Chaos
	if lc := ch.Lifecycle; lc.ChurnKills+lc.OOMKills+lc.Restarts > 0 {
		fmt.Fprintf(stdout, "lifecycle: %d churn kills, %d OOM kills, %d restarts\n",
			lc.ChurnKills, lc.OOMKills, lc.Restarts)
	}
	if opts.Chaos.Enabled() {
		fmt.Fprintf(stdout, "chaos: %d mmap failures + %d budget rejections injected; %d OOMs, %d ops dropped, %d pressure releases (%d MiB returned)\n",
			ch.InjectedFailures, ch.BudgetFailures, ch.OOMErrors, ch.AllocFailures,
			ch.PressureEvents, ch.PressureReleasedBytes>>20)
	}
	if opts.AuditEveryNs > 0 {
		fmt.Fprintf(stdout, "audit: %d runs, %d violations\n", ch.Audits, ch.Violations)
		if ch.Violations > 0 {
			return cli.ExitFailure
		}
	}

	// Both arms' merged profiles in one export, control first, so
	// profdiff can split them by label.
	x := cli.Exports{Snapshots: res.Telemetry.Snapshots(opts.DurationNs)}
	if res.HeapProfiles != nil {
		x.Profiles = append(append(x.Profiles, res.HeapProfiles.Control...), res.HeapProfiles.Experiment...)
	}
	if err := c.WriteExports(stdout, x); err != nil {
		return cli.Exit(stderr, err)
	}
	if c.gwpDir != "" && res.HeapProfiles != nil {
		if err := writeWarehouse(c, res); err != nil {
			return cli.Exit(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote gwp warehouse %s (raw-00000000=control, raw-00000001=experiment)\n", c.gwpDir)
	}
	if c.ServeAddr == "" {
		return 0
	}
	// /statusz identifies the finished A/B run this one-shot server is
	// exposing.
	return cli.Exit(stderr, c.ServeRun(stdout, "fleet-ab", x, map[string]any{
		"arm":         armDesc,
		"machines":    c.machines,
		"sample":      opts.SampleFraction,
		"seed":        c.seed,
		"duration_ms": opts.DurationNs / 1e6,
		"arms":        len(x.Snapshots),
	}, telemetry.Endpoints{}))
}

// writeWarehouse writes one gwp warehouse window per arm, so gwpquery
// answers CDF, frag and window-vs-window profdiff queries over a
// standalone fleet run with the same tooling the daemon's continuous
// collection feeds.
func writeWarehouse(c *command, res fleet.ABResult) error {
	opts := c.opts
	fp := fmt.Sprintf("fleet-ab seed=%#x machines=%d sample=%g duration=%d control=%q experiment=%q",
		c.seed, c.machines, opts.SampleFraction, opts.DurationNs, opts.ControlDesign, opts.ExperimentDesign)
	wh, err := gwp.Open(c.gwpDir, fp, gwp.DefaultRetention(), false)
	if err != nil {
		return err
	}
	for _, arm := range []struct {
		idx    int64
		design string
		prof   []heapprof.Profile
		frag   core.FragZ
	}{
		{0, opts.ControlDesign, res.HeapProfiles.Control, res.Frag.Control},
		{1, opts.ExperimentDesign, res.HeapProfiles.Experiment, res.Frag.Experiment},
	} {
		win := &gwp.Window{
			Meta: gwp.WindowMeta{
				ID: gwp.WindowID(gwp.TierRaw, arm.idx), Tier: gwp.TierRaw, Index: arm.idx,
				EndNs: opts.DurationNs, Design: arm.design,
				Machines: res.Fleet.Machines, Sources: 1,
			},
			Frag:     arm.frag,
			Profiles: arm.prof,
		}
		if err := wh.Append(win); err != nil {
			return err
		}
	}
	return nil
}

// benchEntry is one sweep point of the engine benchmark.
type benchEntry struct {
	J              int     `json:"j"`
	WallMs         float64 `json:"wall_ms"`
	MachinesPerSec float64 `json:"machines_per_sec"`
	SpeedupVsJ1    float64 `json:"speedup_vs_j1"`
	IdenticalToJ1  bool    `json:"identical_to_j1"`
}

// benchDoc is the BENCH_fleet.json schema.
type benchDoc struct {
	Benchmark         string       `json:"benchmark"`
	FleetMachines     int          `json:"fleet_machines"`
	EnrolledMachines  int          `json:"enrolled_machines"`
	RunsPerMachine    int          `json:"runs_per_machine"`
	VirtualDurationMs int64        `json:"virtual_duration_ms"`
	Seed              uint64       `json:"seed"`
	NumCPU            int          `json:"num_cpu"`
	Sweep             []benchEntry `json:"sweep"`
}

// fingerprint renders an ABResult canonically for the bench
// divergence check: the value-typed rows and chaos stats via %#v, the
// telemetry arms via the byte-stable Prometheus export, and the heap
// profile arms via the pprof text export. Unlike %#v over the whole
// struct, this stays equal across runs whose results are semantically
// identical even though the registries and profile slices live at
// different addresses — so -bench-sweep exercises exactly the
// instrumentation the real experiment would run with.
func fingerprint(res fleet.ABResult, nowNs int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%#v\n%#v\n%#v\n", res.Fleet, res.PerApp, res.Chaos)
	if res.Telemetry != nil {
		_ = telemetry.WritePrometheus(&b, res.Telemetry.Snapshots(nowNs)...)
	}
	if res.HeapProfiles != nil {
		_ = heapprof.WriteText(&b, res.HeapProfiles.Control...)
		_ = heapprof.WriteText(&b, res.HeapProfiles.Experiment...)
	}
	return b.String()
}

// parseSweep reads the -bench-sweep list: distinct worker counts, led
// by 1 because speedups are measured against -j 1.
func parseSweep(sweep string) ([]int, error) {
	js := []int{1}
	seen := map[int]bool{1: true}
	for _, tok := range strings.Split(sweep, ",") {
		tok = strings.TrimSpace(tok)
		j, err := strconv.Atoi(tok)
		switch {
		case tok == "":
			continue
		case tok == "max":
			j = runtime.NumCPU()
		case err != nil || j < 1:
			return nil, fmt.Errorf("bad -bench-sweep entry %q", tok)
		}
		if !seen[j] {
			seen[j] = true
			js = append(js, j)
		}
	}
	return js, nil
}

// runBench runs the same experiment once per worker count, checks each
// result is bit-identical to -j 1's, and writes the JSON report. It
// returns false if any parallel result diverged from the sequential one.
func runBench(stdout io.Writer, f *fleet.Fleet, control, experiment core.Config, opts fleet.ABOptions,
	js []int, out string, seed uint64) (bool, error) {
	doc := benchDoc{
		Benchmark:         "fleet-ab",
		FleetMachines:     len(f.Machines),
		RunsPerMachine:    2, // paired control + experiment
		VirtualDurationMs: opts.DurationNs / 1_000_000,
		Seed:              seed,
		NumCPU:            runtime.NumCPU(),
	}
	var baseWall float64
	var baseline string
	ok := true
	for _, j := range js {
		opts.Workers = j
		start := time.Now()
		res := f.ABTest(control, experiment, opts)
		wall := time.Since(start)
		fp := fingerprint(res, opts.DurationNs)
		if j == 1 {
			baseline = fp
			baseWall = wall.Seconds()
		}
		doc.EnrolledMachines = res.Fleet.Machines
		e := benchEntry{
			J:              j,
			WallMs:         float64(wall.Microseconds()) / 1000,
			MachinesPerSec: float64(2*res.Fleet.Machines) / wall.Seconds(),
			SpeedupVsJ1:    baseWall / wall.Seconds(),
			IdenticalToJ1:  fp == baseline,
		}
		ok = ok && e.IdenticalToJ1
		doc.Sweep = append(doc.Sweep, e)
		fmt.Fprintf(stdout, "-j %-3d %8.1f ms  %7.1f machines/s  speedup %.2fx  identical=%v\n",
			e.J, e.WallMs, e.MachinesPerSec, e.SpeedupVsJ1, e.IdenticalToJ1)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err != nil {
		return false, fmt.Errorf("write %s: %w", out, err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return ok, nil
}
