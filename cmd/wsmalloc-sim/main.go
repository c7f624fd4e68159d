// Command wsmalloc-sim runs one workload profile against the allocator
// and dumps the full telemetry: per-tier cycle breakdown, fragmentation
// breakdown, hugepage coverage, cache statistics.
//
// Usage:
//
//	wsmalloc-sim [-profile fleet] [-config baseline|optimized|<feature>]
//	             [-design POINT] [-duration-ms 200] [-seed 1]
//	             [-telemetry] [-metrics-out BASE] [-sample-every-ms 10]
//	             [-heapprof] [-heapprof-interval N] [-pageheapz] [-serve :8080]
//	             [-checkpoint-dir DIR] [-checkpoint-every-ms N] [-resume]
//	             [-kill-frac 0.5] [-churn 0.1] [-restart-on-oom]
//	             [-retune-design POINT -retune-at-ms N] [-list] [-list-policies]
//
// Flags shared with the other run binaries live in internal/cli.
//
// -telemetry instruments every allocator tier with the metrics registry
// and event tracer and appends a mallocz-style dump to the report.
// -metrics-out writes BASE.prom (Prometheus text), BASE.json (snapshot +
// time series + trace) and BASE.mallocz instead; -sample-every-ms sets
// the virtual-time cadence of the time-series sampler. -heapprof
// attaches the Poisson-sampled heap profiler and dumps the heapz /
// allocz / peakheapz views (plus BASE.heapz and BASE.heapz.json next to
// -metrics-out). -pageheapz dumps the hugepage occupancy maps and the
// fragmentation decomposition. -serve keeps the process alive serving
// /metricsz, /tracez, /heapz and /pageheapz over HTTP.
//
// The checkpoint and lifecycle flags run the profile through the
// crash-tolerant machine runner: -kill-frac stops the run after a
// checkpoint with exit code 3, and -resume finishes it with exports
// byte-identical to an uninterrupted run.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"wsmalloc/internal/cli"
	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// command is wsmalloc-sim's command line, every flag bound onto the
// value it sets.
type command struct {
	*cli.Flags
	cfg          core.Config
	opts         workload.Options
	lc           fleet.LifecycleOptions
	design       *cli.Design
	profile      string
	list         bool
	listPolicies bool
	pageheapz    bool
}

func newCommand(stderr io.Writer) *command {
	c := &command{Flags: cli.New("wsmalloc-sim", stderr), cfg: core.BaselineConfig(), opts: workload.DefaultOptions(1)}
	c.cfg.Telemetry = telemetry.DefaultConfig()
	c.StringVar(&c.profile, "profile", "fleet", "workload profile (see -list)")
	c.design = c.Design(&c.cfg, "config", "baseline", "baseline, optimized, or one redesign: heterogeneous-percpu-cache, nuca-transfer-cache, span-prioritization, lifetime-aware-filler",
		map[string]policy.DesignPoint{"baseline": policy.Baseline(), "optimized": policy.Optimized()})
	c.BoolVar(&c.listPolicies, "list-policies", false, "list registered per-tier policies and exit")
	c.BoolVar(&c.list, "list", false, "list profiles and exit")
	c.Seed(&c.opts.Seed)
	c.Duration(&c.opts.Duration, 200)
	c.Exports(&c.cfg.Telemetry, &c.cfg.HeapProfile)
	c.HeapProfInterval(&c.cfg.HeapProfile)
	cli.Millis(c.FlagSet, &c.cfg.Telemetry.SampleEveryNs, "sample-every-ms", 10,
		"virtual cadence of the telemetry time-series sampler in `ms` (0 disables)")
	c.BoolVar(&c.pageheapz, "pageheapz", false, "dump hugepage occupancy maps and the fragmentation decomposition")
	c.Serve()
	c.Checkpoint(&c.lc.Checkpoint)
	c.Churn(&c.lc.Churn)
	c.RestartOnOOM(&c.lc.RestartOnOOM)
	c.Retune(&c.opts.RetuneAtNs, &c.opts.RetuneDesign)
	c.Profiling()
	return c
}

func run(args []string, stdout, stderr io.Writer) int {
	c := newCommand(stderr)
	if code, ok := c.Parse(args); !ok {
		return code
	}
	stop, err := c.StartProfiling()
	if err != nil {
		return cli.Usage(stderr, "%v", err)
	}
	defer stop()

	if c.list {
		for _, p := range workload.AllProfiles() {
			fmt.Fprintf(stdout, "  %-18s malloc %4.1f%%  threads ~%d  cpus %d\n",
				p.Name, p.MallocFraction*100, p.Threads.Base, p.CPUSet)
		}
		return 0
	}
	if c.listPolicies {
		for _, tier := range policy.Tiers() {
			fmt.Fprintf(stdout, "%s:\n", tier)
			for _, name := range policy.Names(tier) {
				p, _ := policy.Lookup(tier, name)
				fmt.Fprintf(stdout, "  %-10s %s\n", name, p.Desc)
			}
		}
		return 0
	}
	profile, ok := workload.ByName(c.profile)
	if !ok {
		return cli.Usage(stderr, "unknown profile %q (try -list)", c.profile)
	}
	// Lifecycle mode runs the profile through the crash-tolerant machine
	// runner: periodic checkpoints, scheduled/churn kills, OOM restarts.
	// A restarted run loses its heap and caches but keeps its workload
	// position. The allocator lives inside the runner, so the live
	// /pageheapz, /tracez and -serve views are unavailable in this mode.
	lifecycleOn := c.lc.Checkpoint.Dir != "" || c.lc.Churn > 0 || c.lc.RestartOnOOM
	if lifecycleOn && (c.pageheapz || c.ServeAddr != "") {
		return cli.Usage(stderr, "-pageheapz and -serve are not available with lifecycle flags")
	}

	// design is the canonical design-point string stamped onto every
	// export when -design is used; "" keeps the -config labeling.
	design, label, runLabel := "", c.design.Named, c.design.Named
	if c.design.Override {
		design, label, runLabel = c.design.Point.String(), "", c.design.Point.String()
	}
	opts := c.opts
	var res workload.Result
	var alloc *core.Allocator
	var x cli.Exports
	if lifecycleOn {
		seed := opts.Seed
		m := fleet.Machine{ID: 0, Platform: topology.Default(), App: profile, Seed: seed}
		c.lc.Arm, c.lc.Design, c.lc.ChurnSeed = "sim", runLabel, seed^0xc0ffee
		rm, lcStats, halted, err := fleet.RunMachineLifecycle(m, c.cfg, opts, c.lc)
		if err != nil {
			return cli.Exit(stderr, err)
		}
		if halted {
			fmt.Fprintf(stdout, "run killed at %.0f%% virtual time; checkpointed to %s — re-run with -resume to finish\n",
				c.lc.Checkpoint.KillAtFrac*100, c.lc.Checkpoint.Dir)
			return cli.ExitHalted
		}
		if lcStats.ChurnKills+lcStats.OOMKills+lcStats.Restarts > 0 {
			fmt.Fprintf(stdout, "lifecycle: %d churn kills, %d OOM kills, %d restarts\n",
				lcStats.ChurnKills, lcStats.OOMKills, lcStats.Restarts)
		}
		res = rm.Result
		// The registry survives restarts and resume; the trace ring and
		// sampler series stay inside the runner.
		if rm.Telemetry != nil {
			x.Snapshots = []telemetry.Snapshot{rm.Telemetry.Snapshot(label, opts.Duration)}
		}
		x.Profiles = rm.HeapProfiles
		for i := range x.Profiles {
			x.Profiles[i].Label = label
		}
	} else {
		alloc = core.New(c.cfg, topology.New(topology.Default()))
		res = workload.Run(profile, alloc, opts)
		if tel := alloc.Telemetry(); tel != nil {
			x.Snapshots = []telemetry.Snapshot{tel.Snapshot(label, alloc.Now())}
			x.Trace = tel.Tracer().Dump()
			x.Series = tel.Samples()
		}
		x.Profiles = alloc.HeapProfiles(label)
	}
	for i := range x.Snapshots {
		x.Snapshots[i].Design = design
	}
	for i := range x.Profiles {
		x.Profiles[i].Design = design
	}

	printReport(stdout, profile.Name, runLabel, opts, res)
	if err := c.WriteExports(stdout, x); err != nil {
		return cli.Exit(stderr, err)
	}
	if c.pageheapz {
		z := alloc.PageHeapZ()
		var err error
		if c.MetricsOut != "" {
			err = cli.WriteFile(stdout, c.MetricsOut+".pageheapz", func(w io.Writer) error { return core.WritePageHeapZ(w, z) })
		} else {
			fmt.Fprintln(stdout)
			if err = core.WritePageHeapZ(stdout, z); err != nil {
				err = fmt.Errorf("pageheapz: %w", err)
			}
		}
		if err != nil {
			return cli.Exit(stderr, err)
		}
	}
	if c.ServeAddr == "" {
		return 0
	}
	// /statusz identifies the finished run this one-shot server is
	// exposing.
	return cli.Exit(stderr, c.ServeRun(stdout, "wsmalloc-sim", x, map[string]any{
		"profile":     profile.Name,
		"config":      runLabel,
		"seed":        opts.Seed,
		"duration_ms": opts.Duration / 1e6,
		"ops":         res.Ops,
		"frees":       res.Frees,
	}, telemetry.Endpoints{
		Trace: func() telemetry.TraceDump { return x.Trace },
		PageHeapz: func(w io.Writer, format string) error {
			z := alloc.PageHeapZ()
			if format == "json" {
				return core.WritePageHeapZJSON(w, z)
			}
			return core.WritePageHeapZ(w, z)
		},
	}))
}

// printReport prints the run summary: throughput, malloc time, heap,
// fragmentation, per-tier state and the Fig. 6a cycle breakdown.
func printReport(w io.Writer, profile, runLabel string, opts workload.Options, res workload.Result) {
	st := res.Stats
	fmt.Fprintf(w, "profile %s under %s for %dms virtual (seed %d)\n",
		profile, runLabel, opts.Duration/1e6, opts.Seed)
	fmt.Fprintf(w, "  ops            %d allocs, %d frees (%.1fM ops/s virtual)\n",
		res.Ops, res.Frees, res.OpsPerSecond()/1e6)
	fmt.Fprintf(w, "  malloc time    %.2f ms modeled (%.2f%% of app CPU)\n",
		res.MallocNs/1e6, res.MallocNs/res.TotalCPUNs*100)
	fmt.Fprintf(w, "  live heap      %.1f MiB requested, %.1f MiB rounded, %.1f MiB mapped\n",
		mib(st.LiveRequestedBytes), mib(st.LiveRoundedBytes), mib(st.HeapBytes))
	fmt.Fprintf(w, "  fragmentation  %.1f%% of live (ext %.1f MiB + int %.1f MiB)\n",
		st.FragmentationRatio()*100, mib(st.ExternalFragBytes()), mib(st.InternalFragBytes()))
	fmt.Fprintf(w, "  hugepages      coverage %.2f%%\n", st.HugepageCoverage*100)
	fmt.Fprintf(w, "  front-end      %d vCPU caches, %.1f MiB cached, hit rate %.3f%%\n",
		st.FrontEnd.PopulatedCaches, mib(st.FrontEnd.CachedBytes),
		pct(st.FrontEnd.AllocHits, st.FrontEnd.AllocHits+st.FrontEnd.AllocMisses))
	fmt.Fprintf(w, "  transfer       %.1f MiB cached; reuse intra %d / inter %d / cold %d\n",
		mib(st.Transfer.CachedBytes), st.Transfer.IntraDomain, st.Transfer.InterDomain, st.Transfer.Cold)
	fmt.Fprintf(w, "  central lists  %d spans (%d created, %d released)\n",
		st.CFLSpans, st.CFLSpansCreated, st.CFLSpansReleased)
	fmt.Fprintf(w, "  pageheap       filler %.1f/%.1f MiB used/free, region %.1f/%.1f, cache %.1f free\n",
		mib(st.Heap.FillerUsed), mib(st.Heap.FillerFree), mib(st.Heap.RegionUsed),
		mib(st.Heap.RegionFree), mib(st.Heap.CacheFree))

	fmt.Fprintln(w, "  cycle breakdown:")
	shares := st.Time.Shares()
	keys := make([]string, 0, len(shares))
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	for _, k := range keys {
		fmt.Fprintf(w, "    %-16s %6.2f%%\n", k, shares[k]*100)
	}
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
