package main

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/sched"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestMetricNames(t *testing.T) {
	sp := loadRepoSpec(t)
	var names []string
	for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
		names = append(names, m.Name)
	}
	for name, tg := range layerTargets {
		names = append(names, name)
		names = append(names, tg.moves...)
		names = append(names, tg.on...)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("metric or workload name %q does not match %s", n, nameRE)
		}
	}
}

// TestSpecRoundTrip checks that BENCHMARK.json decodes strictly,
// re-encodes to the same document, and agrees with the metrics the
// benchmark reports.
func TestSpecRoundTrip(t *testing.T) {
	sp := loadRepoSpec(t)
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	again, err := parseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, again) {
		t.Fatalf("BENCHMARK.json does not round-trip:\n%+v\n%+v", sp, again)
	}

	var perLayer []string
	for _, m := range sp.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	var targets []string
	for name, tg := range layerTargets {
		targets = append(targets, name)
		for _, w := range tg.on {
			if !sp.hasWorkload(w) {
				t.Errorf("%s targets unknown workload %s", name, w)
			}
		}
	}
	sort.Strings(perLayer)
	sort.Strings(targets)
	if !reflect.DeepEqual(perLayer, targets) {
		t.Errorf("per_layer metrics %v\ndiffer from the target map %v", perLayer, targets)
	}
	for _, w := range sp.Workloads {
		if w.Name != "fleet_ab" && w.Name != "large_objects" && w.Name != "daemon_observe" {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func TestSpecRejects(t *testing.T) {
	good := `{"command":["bash","perfbench/run.sh"],"paths":["perfbench"],"run_seconds":5,
		"workloads":[{"name":"a","why":"x"},{"name":"b","why":"y"}],
		"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}],
		"per_layer":[{"name":"l.x","unit":"ns","better":"lower"}]}`
	if _, err := parseSpec([]byte(good)); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	for name, bad := range map[string]string{
		"unknown key":    strings.Replace(good, `"paths"`, `"extra":1,"paths"`, 1),
		"bad name":       strings.Replace(good, `"l.x"`, `"l x"`, 1),
		"duplicate name": strings.Replace(good, `"l.x"`, `"a"`, 1),
		"bound too big":  strings.Replace(good, `0.25`, `0.3`, 1),
		"layer bound":    strings.Replace(good, `"unit":"ns","better":"lower"`, `"unit":"ns","better":"lower","bound":0.1`, 1),
		"no setup_s":     strings.Replace(good, `"setup_s"`, `"setup"`, 1),
	} {
		if _, err := parseSpec([]byte(bad)); err == nil {
			t.Errorf("%s: spec accepted", name)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Error("p90 of 99 samples (9 beyond it) was reported")
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond it) was reported")
	}
	xs = append(xs, 99)
	v, err := percentile(xs, 0.9)
	if err != nil || v != 89 {
		t.Errorf("p90 of 0..99 = %v, %v; want 89", v, err)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := newTracer("t")
	tr.appendSpans([]span{
		{parent: -1, name: tr.nameID("root"), start: 0, end: 100},
		{parent: 0, name: tr.nameID("child"), start: 10, end: 40},
		{parent: 0, name: tr.nameID("child"), start: 30, end: 60},  // overlaps the first
		{parent: 0, name: tr.nameID("child"), start: 90, end: 120}, // runs past the parent
	})
	self := tr.selfTimes()
	if got := self["root"]; got != 100-50-10 {
		t.Errorf("root self time %v, want 40", got)
	}
	if got := self["child"]; got != 30+30+30 {
		t.Errorf("child self time %v, want 90", got)
	}
}

// TestReplayMatchesDriver checks that the generated op stream, replayed
// into a fresh allocator, reproduces a driver run's counters exactly.
func TestReplayMatchesDriver(t *testing.T) {
	f, _, experiment := newFleetAB(3)
	m := f.Machines[0]
	o := workload.DefaultOptions(m.Seed)
	o.Duration = 5 * workload.Millisecond
	ref := workload.Run(m.App, core.New(experiment, topology.New(m.Platform)), o)
	s := genOps(m.App, m.Platform.NumCPUs(), o)
	rep, err := replay(&s, core.New(experiment, topology.New(m.Platform)), experiment.Latency, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fidelityChecks(rep, ref) {
		if c.got != c.want {
			t.Errorf("%s: replay %g, driver %g", c.name, c.got, c.want)
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny scale: each passes its
// audits, repeats its digest for one seed, and, where it fans out, gives
// the same digest at one worker and at two.
func TestWorkloadsTiny(t *testing.T) {
	check := func(name string, run func(w int) (unitResult, error), fanOut bool) {
		t.Run(name, func(t *testing.T) {
			a, err := run(workers)
			if err != nil {
				t.Fatal(err)
			}
			if a.audits == 0 || a.violations > 0 || a.failed > 0 || a.ops == 0 || a.virtualSec <= 0 {
				t.Fatalf("unit %+v", a)
			}
			w := workers
			if fanOut {
				w = 1
			}
			b, err := run(w)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest != b.digest {
				t.Errorf("digest %s at %d workers, %s at %d", a.digest, workers, b.digest, w)
			}
		})
	}
	check("fleet_ab", func(w int) (unitResult, error) { return runFleetAB(5, w, fleetShortNs) }, true)
	check("large_objects", func(int) (unitResult, error) { return runLarge(5, 5*workload.Millisecond) }, false)
	check("daemon_observe", func(w int) (unitResult, error) { return runDaemon(5, w, daemonShort, t.TempDir()) }, true)
}

// TestTracerConcurrent records spans from sched workers, as the fleet
// probe does; run it with -race.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer("t")
	root := tr.begin("root", -1)
	err := sched.Map(context.Background(), 64, 4, func(i int) error {
		tr.end(tr.begin("worker", root))
		return nil
	})
	tr.end(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.durations("worker")); n != 64 {
		t.Fatalf("%d worker spans, want 64", n)
	}
	if self := tr.selfTimes(); self["root"] < 0 {
		t.Fatalf("negative root self time %v", self["root"])
	}
}
