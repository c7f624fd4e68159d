// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-seed N] [-scale smoke|quick|full] [-j N] [-audit] [-chaos]
//	            [-telemetry] [-heapprof] [-metrics-out BASE]
//	            [-design POINTS] [-design-out BASE] [all|<name>...]
//
// Names are fig3..fig17, table1, table2, combined, ablation-l,
// ablation-c, ablation-capacity, selftest, chaos. With no arguments it
// lists the registry.
//
// -j bounds the worker pool that experiments fan out over (machines in
// fleet A/Bs, profiles in benchmark sweeps, the experiments themselves);
// the default is all cores, -j 1 is the sequential path, and the
// output is bit-identical at any -j for the same seed.
//
// -audit runs every profile under the full shadow-heap sanitizer with
// periodic invariant audits; -chaos additionally injects a deterministic
// mmap failure rate. The command exits non-zero if any audit trips or a
// self-checking experiment fails.
//
// -telemetry instruments every profile-driven run and folds the metrics
// registries into one aggregate, dumped mallocz-style after the reports;
// -metrics-out writes BASE.prom, BASE.json and BASE.mallocz instead.
// -heapprof additionally attaches the sampled heap profiler to every
// profile-driven run and dumps the merged heapz/allocz/peakheapz views
// (BASE.heapz and BASE.heapz.json with -metrics-out). Flags shared with
// the other run binaries live in internal/cli.
//
// -design selects the points swept by the "designspace" experiment as a
// semicolon-separated list of design-point strings
// ("baseline;optimized;percpu=ewma,cfl=bestfit"); the default is the
// full registry grid. -design-out writes the ranked leaderboard to
// BASE.json and BASE.csv.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"wsmalloc"
	"wsmalloc/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// command is the experiments command line, every flag bound onto the
// value it sets.
type command struct {
	*cli.Flags
	tel       wsmalloc.TelemetryConfig
	hp        wsmalloc.HeapProfileConfig
	hardening wsmalloc.Hardening
	seed      uint64
	workers   int
	scale     string
	design    string
	designOut string
}

func newCommand(stderr io.Writer) *command {
	c := &command{Flags: cli.New("experiments", stderr)}
	c.Seed(&c.seed)
	c.StringVar(&c.scale, "scale", "quick", "experiment scale: smoke, quick, or full")
	c.Workers(&c.workers)
	c.BoolVar(&c.hardening.Audit, "audit", false, "run profiles under the shadow-heap sanitizer with periodic invariant audits")
	c.BoolVar(&c.hardening.Chaos, "chaos", false, "inject a deterministic mmap failure rate into every profile run")
	c.Exports(&c.tel, &c.hp)
	c.StringVar(&c.design, "design", "", "semicolon-separated design points for the designspace sweep (default: full registry grid)")
	c.StringVar(&c.designOut, "design-out", "", "write the designspace leaderboard to BASE.json and BASE.csv")
	return c
}

func run(args []string, stdout, stderr io.Writer) int {
	c := newCommand(stderr)
	if code, ok := c.Parse(args); !ok {
		return code
	}
	wsmalloc.SetHardening(c.hardening)
	wsmalloc.SetExperimentWorkers(c.workers)
	// Registries merge commutatively across the worker pool; traces do
	// not, so only the mergeable metrics are aggregated.
	wsmalloc.SetExperimentTelemetry(c.tel)
	wsmalloc.SetExperimentHeapProfile(c.hp)
	if c.design != "" || c.designOut != "" {
		var points []wsmalloc.DesignPoint
		if c.design != "" {
			for _, s := range strings.Split(c.design, ";") {
				d, err := wsmalloc.ParseDesignPoint(strings.TrimSpace(s))
				if err != nil {
					return cli.Usage(stderr, "-design: %v", err)
				}
				points = append(points, d)
			}
		}
		wsmalloc.SetDesignSpace(points, c.designOut)
	}
	scale, ok := map[string]wsmalloc.Scale{
		"smoke": wsmalloc.ScaleSmoke, "quick": wsmalloc.ScaleQuick, "full": wsmalloc.ScaleFull,
	}[c.scale]
	if !ok {
		return cli.Usage(stderr, "unknown scale %q", c.scale)
	}

	names := c.Args()
	if len(names) == 0 {
		fmt.Fprintln(stdout, "available experiments (pass names or 'all'):")
		for _, r := range wsmalloc.Experiments() {
			fmt.Fprintf(stdout, "  %-18s %s\n", r.Name, r.Desc)
		}
		return 0
	}
	if len(names) == 1 && names[0] == "all" {
		names = nil
		for _, r := range wsmalloc.Experiments() {
			names = append(names, r.Name)
		}
	}
	reports, err := wsmalloc.RunExperiments(names, c.seed, scale)
	if err != nil {
		return cli.Usage(stderr, "%v", err)
	}
	failed := false
	for _, rep := range reports {
		fmt.Fprintln(stdout, rep)
		failed = failed || rep.Failed
	}
	if trips := wsmalloc.AuditTrips(); trips > 0 {
		fmt.Fprintf(stderr, "audit: %d run(s) ended with invariant violations\n", trips)
		failed = true
	}
	x := cli.Exports{Profiles: wsmalloc.ExperimentHeapProfiles(), Tight: true}
	if reg := wsmalloc.ExperimentTelemetry(); reg != nil {
		x.Snapshots = []wsmalloc.TelemetrySnapshot{reg.Snapshot("experiments", 0)}
	}
	if err := c.WriteExports(stdout, x); err != nil {
		return cli.Exit(stderr, err)
	}
	if failed {
		return cli.ExitFailure
	}
	return 0
}
