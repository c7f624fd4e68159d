// Command perfbench is the repository benchmark: one command that runs a
// workload through the simulator's public entry points, checks that the
// outputs are correct, and prints its metrics.
//
//	bash perfbench/run.sh --workload fleet_ab --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics of BENCHMARK.json for
// --seconds, repeating cold-start units of the workload. With --trace 1 it
// runs the per-layer probes instead: spans around calls into each module,
// kept in memory and written to --spans-dir at exit, and a ledger that
// splits the workload's host time by layer. The last line of standard
// output is always one JSON object: correct, attempted, failed, metrics.
//
// Run it from the root of the repository; it writes only under
// .bench_build there.
package main

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"wsmalloc/internal/daemon"
	"wsmalloc/internal/profiling"
	"wsmalloc/internal/rng"
)

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", "workload name: fleet_ab, large_objects or daemon_observe")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "how long the measured window lasts")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer probes instead of the end-to-end measurement")
	spansDir := flag.String("spans-dir", filepath.Join(".bench_build", "traces"), "where the traced run writes its spans")
	flag.Parse()
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if !sp.hasWorkload(*wl) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	profiling.TuneGC()

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := scratchDir(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	host, _ := json.Marshal(currentHost())
	fmt.Printf("host %s\n", host)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *wl, *seed, *seconds, *trace)

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	vals := map[string]float64{}
	defs := sp.EndToEnd
	if *trace == 0 {
		err = measure(&res, vals, *wl, *seed, time.Duration(*seconds)*time.Second, scratch)
	} else {
		defs = sp.PerLayer
		err = traced(&res, vals, *wl, *seed, scratch, *spansDir, string(host))
	}
	if err == nil {
		err = report(&res, defs, vals)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setupReps is how many times a run times the workload's set-up before
// its measured units; setup_s is the median.
const setupReps = 31

// minUnits is the fewest measured units a run makes, however long each
// takes.
const minUnits = 2

// measure runs cold-start units of wl for at least window and reports the
// end-to-end metrics: medians over the units of each rate. Each unit
// simulates its own inputs, drawn from the run's seed, so a run's medians
// cover many draws of the workload rather than one.
func measure(res *result, vals map[string]float64, wl string, seed uint64, window time.Duration, scratch string) error {
	unit := func(seed uint64, w int, short bool) (unitResult, error) {
		switch wl {
		case "fleet_ab":
			if short {
				return runFleetAB(seed, w, fleetShortNs)
			}
			return runFleetAB(seed, w, fleetDurationNs)
		case "large_objects":
			return runLarge(seed, largeDurationNs)
		default:
			if short {
				return runDaemon(seed, w, daemonShort, scratch)
			}
			return runDaemon(seed, w, daemonTicks, scratch)
		}
	}

	// Each set-up starts, as in a fresh process, from a heap whose free
	// memory has gone back to the OS, so no sample is charged for the
	// garbage of the ones before it. The first also warms the code paths
	// and is not counted.
	var setups []float64
	for i := range setupReps + 1 {
		debug.FreeOSMemory()
		d, err := setupOnce(wl, seed, scratch)
		if err != nil {
			return err
		}
		if i > 0 {
			setups = append(setups, d.Seconds())
		}
	}

	seeds := rng.New(seed)
	var units []unitResult
	var unitSeeds []uint64
	var rss []float64
	start := time.Now()
	for len(units) < minUnits || time.Since(start) < window {
		// Each unit starts as a fresh process would: its garbage-free heap
		// returned to the OS, so no unit pays for the one before it and
		// each unit's resident-set peak is its own.
		debug.FreeOSMemory()
		s := startRSS()
		us := seeds.Uint64()
		u, err := unit(us, workers, false)
		rss = append(rss, s.Stop())
		if err != nil {
			return err
		}
		units = append(units, u)
		unitSeeds = append(unitSeeds, us)
	}
	measured := time.Since(start)
	var vsec, ops, ticks []float64
	for _, u := range units {
		vsec = append(vsec, u.virtualSec/u.wall.Seconds())
		ops = append(ops, float64(u.ops)/u.wall.Seconds())
		ticks = append(ticks, u.ticks...)
		res.Attempted += u.attempted
		res.Failed += u.failed
	}
	vals["vsec_per_s"] = median(vsec)
	vals["sim_ops_per_s"] = median(ops)
	vals["setup_s"] = median(setups)
	vals["peak_rss_mb"] = median(rss)

	fmt.Printf("units %d  measured %.1f s  setup samples %d\n", len(units), measured.Seconds(), len(setups))
	fmt.Printf("unit vsec_per_s %.4g\n", vsec)
	fmt.Printf("unit peak_rss_mb %.4g\n", rss)
	fmt.Printf("setup_s samples %.4g\n", setups)
	fmt.Printf("metric %-16s %14.6g ratio (%d of %d)\n", "failed_ops_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if len(ticks) > 0 {
		for _, q := range []float64{0.5, 0.9} {
			name := fmt.Sprintf("tick_p%.0f_ms", q*100)
			if v, err := percentile(ticks, q); err == nil {
				fmt.Printf("metric %-16s %14.6g ms (n=%d)\n", name, v, len(ticks))
			} else {
				fmt.Printf("metric %-16s refused: %v\n", name, err)
			}
		}
	}

	// Correctness: clean audits, no failures, and one digest per seed:
	// the first unit's inputs run again give the same digest, and so does
	// a short run of them at one worker and at two.
	for i, u := range units {
		if u.audits == 0 || u.violations > 0 {
			return fmt.Errorf("unit %d: %d audits, %d invariant violations", i, u.audits, u.violations)
		}
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	again, err := unit(unitSeeds[0], workers, false)
	if err != nil {
		return err
	}
	if again.digest != units[0].digest || again.violations > 0 {
		return fmt.Errorf("seed %d: digest %s, then %s on a repeated run", unitSeeds[0], units[0].digest, again.digest)
	}
	fmt.Printf("check audits clean; seed %d digest %s identical on a repeated run\n", unitSeeds[0], again.digest)
	if wl != "large_objects" {
		j1, err := unit(unitSeeds[0], 1, true)
		if err != nil {
			return err
		}
		j2, err := unit(unitSeeds[0], workers, true)
		if err != nil {
			return err
		}
		if j1.digest != j2.digest || j1.violations+j2.violations > 0 {
			return fmt.Errorf("short run: j=1 digest %s, j=%d digest %s, %d violations", j1.digest, workers, j2.digest, j1.violations+j2.violations)
		}
		fmt.Printf("check short run digest %s identical at j=1 and j=%d\n", j1.digest, workers)
	}
	return nil
}

// setupOnce constructs the workload's fleet, allocator or daemon the way
// a unit does, and returns how long that took.
func setupOnce(wl string, seed uint64, scratch string) (time.Duration, error) {
	switch wl {
	case "fleet_ab":
		t0 := time.Now()
		newFleetAB(seed)
		return time.Since(t0), nil
	case "large_objects":
		t0 := time.Now()
		newLarge(seed, largeDurationNs)
		return time.Since(t0), nil
	}
	dir, err := os.MkdirTemp(scratch, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	d, err := daemon.New(daemonConfig(seed, workers, dir))
	el := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return el, d.Close()
}

// traced runs the per-layer probes and writes the spans.
func traced(res *result, vals map[string]float64, wl string, seed uint64, scratch, spansDir, host string) error {
	lr, err := traceWorkload(wl, seed, scratch, os.Stdout)
	res.Attempted, res.Failed = lr.attempted, lr.failed
	if werr := writeSpans(lr.tr, spansDir, wl, host); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	fmt.Printf("traced run peak_rss_mb %.1f\n", peakRSSMB())
	for k, v := range lr.m {
		vals[k] = v
	}
	if lr.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", lr.failed, lr.attempted)
	}
	return nil
}

// report fills res.Metrics with exactly the metrics defs names, in their
// units, and prints one line per metric.
func report(res *result, defs []specMetric, vals map[string]float64) error {
	if len(vals) != len(defs) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json names %d", len(vals), len(defs))
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Printf("metric %-30s %14.6g %s\n", d.Name, v, d.Unit)
	}
	return nil
}

// writeSpans writes the run's spans, gzip-compressed, to
// dir/<workload>.spans.tsv.gz.
func writeSpans(tr *tracer, dir, wl, host string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, wl+".spans.tsv.gz")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	if err := tr.writeTo(zw, "host "+host); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return nil
}
