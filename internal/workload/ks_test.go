package workload

import (
	"fmt"
	"math"
	"testing"

	"wsmalloc/internal/rng"
	"wsmalloc/internal/rng/rngtest"
)

// The KS comparisons below hold the current sampler to the epoch-1
// reference (rngtest.Reference) on every distribution the profiles
// draw from: each log-normal and Pareto leaf with its clamps, each size
// mixture, and each lifetime band as the driver warps it.

// ksDraws is the sample size per side of every KS comparison.
const ksDraws = 100_000

// ksAlpha is the significance level the KS statistic is held to.
const ksAlpha = 0.001

// ksCase draws one sample of ksDraws values from each sampler and fails
// t when their two-sample KS statistic reaches the critical value. Case
// k draws its two sides from seeds 2k+1 and 2k+2.
func ksCase(t *testing.T, k int, name string, cur func(*rng.RNG) float64, ref func(*rngtest.Reference) float64) {
	t.Helper()
	r, o := rng.New(uint64(2*k+1)), rngtest.NewReference(uint64(2*k+2))
	a, b := make([]float64, ksDraws), make([]float64, ksDraws)
	for i := range a {
		a[i], b[i] = cur(r), ref(o)
	}
	if d, crit := rngtest.KS(a, b), rngtest.KSCritical(ksDraws, ksDraws, ksAlpha); d >= crit {
		t.Errorf("%s: KS D = %.5f, critical value %.5f (α = %g, %d draws a side)", name, d, crit, ksAlpha, ksDraws)
	}
}

// leafShapes returns every distinct log-normal and Pareto leaf the
// profiles draw from: size and lifetime mixture branches, bare lifetime
// bands, and the preload block sizes.
func leafShapes() []rng.Dist {
	seen := map[string]bool{}
	var out []rng.Dist
	var walk func(d rng.Dist)
	walk = func(d rng.Dist) {
		switch d := d.(type) {
		case *rng.Mixture:
			for _, c := range d.Components() {
				walk(c.Dist)
			}
		case rng.LogNormalDist, rng.ParetoDist:
			if key := fmt.Sprintf("%#v", d); !seen[key] {
				seen[key] = true
				out = append(out, d)
			}
		}
	}
	walk(DefaultPreloadDist())
	for _, p := range AllProfiles() {
		walk(p.SizeDist)
		if p.PreloadDist != nil {
			walk(p.PreloadDist)
		}
		for _, b := range p.Lifetime.Bands {
			walk(b.Dist)
		}
	}
	return out
}

// TestProfileShapesMatchReference compares every log-normal and Pareto
// shape in the profiles, clamps included, drawn in log space as the
// driver draws lifetimes, with the reference sampler. Linear draws are
// covered by the size mixtures below.
func TestProfileShapesMatchReference(t *testing.T) {
	shapes := leafShapes()
	if len(shapes) < 40 {
		t.Fatalf("found %d leaf shapes; the profile walk is missing some", len(shapes))
	}
	for k, d := range shapes {
		c := rng.Compile(d)
		ksCase(t, k, fmt.Sprintf("%+v", d),
			func(r *rng.RNG) float64 { return c.SampleLog(r).Value() },
			func(o *rngtest.Reference) float64 { return o.Sample(d) })
	}
}

// TestSizeMixturesMatchReference compares each profile's size
// distribution, as the driver draws it, with the reference sampler.
func TestSizeMixturesMatchReference(t *testing.T) {
	for k, p := range AllProfiles() {
		d := p.SizeDist
		ksCase(t, 1000+k, p.Name+" sizes", d.Sample, func(o *rngtest.Reference) float64 { return o.Sample(d) })
	}
}

// referenceWarp is the epoch-1 time warp: lifetimes past the cutoff
// become cutoff·(life/cutoff)^γ through math.Pow.
func referenceWarp(life, cutoff int64, gamma float64) int64 {
	if life <= cutoff {
		return max(life, 1)
	}
	c := float64(cutoff)
	return int64(c * math.Pow(float64(life)/c, gamma))
}

// TestWarpedLifetimesMatchReference compares every lifetime band of
// every profile, warped as the driver warps it under the default
// options, with the reference: the epoch-1 lifetime draw followed by the
// math.Pow warp.
func TestWarpedLifetimesMatchReference(t *testing.T) {
	opts := DefaultOptions(0)
	k := 2000
	for _, p := range AllProfiles() {
		lt := newLifetimes(p.Lifetime, opts)
		for bi, b := range p.Lifetime.Bands {
			size, dist := b.MaxSize, b.Dist
			ksCase(t, k, fmt.Sprintf("%s lifetime band %d (≤ %d B)", p.Name, bi, size),
				func(r *rng.RNG) float64 { return float64(lt.draw(r, size)) },
				func(o *rngtest.Reference) float64 {
					return float64(referenceWarp(int64(o.Sample(dist)), opts.TimeWarpCutoffNs, opts.TimeWarpGamma))
				})
			k++
		}
	}
}

// TestLifetimeSampleTakesDriverDraws checks that LifetimeModel.Sample
// (the Fig. 8 views, perfbench's replay) and the driver's log-space
// lifetime draw consume the same variates, band by band, so a stream
// replayed through the former stays in step with the driver.
func TestLifetimeSampleTakesDriverDraws(t *testing.T) {
	opts := DefaultOptions(0)
	for _, p := range append(AllProfiles(), Profile{Name: "bare", Lifetime: LifetimeModel{Bands: []LifetimeBand{
		{MaxSize: 64, Dist: rng.LogNormalDist{Mu: 12, Sigma: 2, Min: 1e3, Max: 1e9}},
		{MaxSize: 1 << 62, Dist: rng.ExpDist{Mean: 4e6}},
	}}}) {
		lt := newLifetimes(p.Lifetime, opts)
		for bi, b := range p.Lifetime.Bands {
			view, drv := rng.New(uint64(bi+1)), rng.New(uint64(bi+1))
			for i := 0; i < 10_000; i++ {
				p.Lifetime.Sample(view, b.MaxSize)
				lt.draw(drv, b.MaxSize)
			}
			if a, b := view.Uint64(), drv.Uint64(); a != b {
				t.Errorf("%s band %d: the streams diverged after 10,000 lifetimes", p.Name, bi)
			}
		}
	}
}
