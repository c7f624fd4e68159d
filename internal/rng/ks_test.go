package rng_test

import (
	"math"
	"sort"
	"testing"

	"wsmalloc/internal/rng"
	"wsmalloc/internal/rng/rngtest"
)

// ksDraws is the sample size per side of every KS comparison.
const ksDraws = 100_000

// ksAlpha is the significance level the KS statistic is held to.
const ksAlpha = 0.001

// checkKS fails t when the two-sample KS statistic of cur and ref
// reaches the α = 0.001 critical value.
func checkKS(t *testing.T, name string, cur, ref []float64) {
	t.Helper()
	d, crit := rngtest.KS(cur, ref), rngtest.KSCritical(len(cur), len(ref), ksAlpha)
	if d >= crit {
		t.Errorf("%s: KS D = %.5f, critical value %.5f (α = %g, %d draws a side)", name, d, crit, ksAlpha, len(cur))
	}
}

// TestNormFloat64MatchesReference compares the normal variates with
// those of the epoch-1 polar Box–Muller sampler.
func TestNormFloat64MatchesReference(t *testing.T) {
	r, ref := rng.New(101), rngtest.NewReference(102)
	cur, old := make([]float64, ksDraws), make([]float64, ksDraws)
	for i := range cur {
		cur[i], old[i] = r.NormFloat64(), ref.NormFloat64()
	}
	checkKS(t, "NormFloat64", cur, old)
}

// TestExpFloat64MatchesReference compares the exponential variates
// with the epoch-1 -log(u) sampler's.
func TestExpFloat64MatchesReference(t *testing.T) {
	r, ref := rng.New(103), rngtest.NewReference(104)
	cur, old := make([]float64, ksDraws), make([]float64, ksDraws)
	for i := range cur {
		cur[i], old[i] = r.ExpFloat64(), ref.ExpFloat64()
	}
	checkKS(t, "ExpFloat64", cur, old)
}

// zigguratBase is the right edge of the normal ziggurat's base strip
// (Marsaglia & Tsang's r for 128 strips); draws beyond it come from the
// tail algorithm.
const zigguratBase = 3.442619855899

// TestNormFloat64Tail checks the normal's tail beyond the ziggurat base
// strip, which the KS comparison above barely sees: |z| > r must occur
// at the rate the normal CDF predicts, and the excess over r must
// follow the conditional tail distribution.
func TestNormFloat64Tail(t *testing.T) {
	const n = 4_000_000
	r := rng.New(105)
	p := math.Erfc(zigguratBase / math.Sqrt2) // P(|Z| > r)
	var excess []float64
	for i := 0; i < n; i++ {
		if z := math.Abs(r.NormFloat64()); z > zigguratBase {
			excess = append(excess, z-zigguratBase)
		}
	}
	want, sd := n*p, math.Sqrt(n*p*(1-p))
	if got := float64(len(excess)); math.Abs(got-want) > 5*sd {
		t.Fatalf("%d of %d draws beyond |z| = %g, want %.0f ± %.0f", len(excess), n, zigguratBase, want, 5*sd)
	}
	// One-sample KS of the excess x against the conditional tail CDF
	// F(x) = 1 − erfc((r+x)/√2) / erfc(r/√2).
	cdf := func(x float64) float64 { return 1 - math.Erfc((zigguratBase+x)/math.Sqrt2)/p }
	sort.Float64s(excess)
	k := float64(len(excess))
	d := 0.0
	for i, x := range excess {
		f := cdf(x)
		d = math.Max(d, math.Max(f-float64(i)/k, float64(i+1)/k-f))
	}
	if crit := math.Sqrt(-math.Log(ksAlpha/2)/2) / math.Sqrt(k); d >= crit {
		t.Fatalf("tail excess KS D = %.4f over %d draws, critical value %.4f", d, len(excess), crit)
	}
}
