// Package rngtest is test support for code that draws from package rng:
// the epoch-1 sampler, kept as a reference the current sampler is
// checked against, and a two-sample Kolmogorov–Smirnov test to do the
// checking with. Nothing outside tests imports it.
package rngtest

import (
	"math"
	"sort"

	"wsmalloc/internal/rng"
)

// Reference draws with the epoch-1 sampler on top of an rng.RNG's
// uniform stream: the polar Box–Muller normal (with its cached second
// variate), -log(u) exponentials, and xm/u^(1/α) Pareto variates, each
// distribution sampled in linear space.
type Reference struct {
	r        *rng.RNG
	hasGauss bool
	gauss    float64
}

// NewReference returns a reference sampler seeded like rng.New(seed).
func NewReference(seed uint64) *Reference { return &Reference{r: rng.New(seed)} }

// NormFloat64 is the polar Box–Muller standard normal.
func (o *Reference) NormFloat64() float64 {
	if o.hasGauss {
		o.hasGauss = false
		return o.gauss
	}
	var u, v, s float64
	for {
		u = 2*o.r.Float64() - 1
		v = 2*o.r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	o.gauss = v * f
	o.hasGauss = true
	return u * f
}

// ExpFloat64 is -log(u), with u = 0 redrawn.
func (o *Reference) ExpFloat64() float64 {
	for {
		if u := o.r.Float64(); u > 0 {
			return -math.Log(u)
		}
	}
}

// Pareto is xm / u^(1/alpha), with u = 0 redrawn.
func (o *Reference) Pareto(xm, alpha float64) float64 {
	for {
		if u := o.r.Float64(); u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// Sample draws one value of d the epoch-1 way. Log-normal, Pareto and
// exponential leaves use the reference variates above and clamp in
// linear space; a mixture draws its branch with one uniform and
// recurses; every other Dist draws only uniforms, which no epoch
// changed, and samples itself.
func (o *Reference) Sample(d rng.Dist) float64 {
	switch d := d.(type) {
	case rng.LogNormalDist:
		v := math.Exp(d.Mu + d.Sigma*o.NormFloat64())
		if d.Min != 0 && v < d.Min {
			v = d.Min
		}
		if d.Max != 0 && v > d.Max {
			v = d.Max
		}
		return v
	case rng.ParetoDist:
		v := o.Pareto(d.Xm, d.Alpha)
		if d.Max > 0 && v > d.Max {
			v = d.Max
		}
		return v
	case rng.ExpDist:
		return d.Mean * o.ExpFloat64()
	case *rng.Mixture:
		comps := d.Components()
		u := o.r.Float64()
		acc := 0.0
		for _, c := range comps[:len(comps)-1] {
			if acc += c.Weight; acc >= u {
				return o.Sample(c.Dist)
			}
		}
		return o.Sample(comps[len(comps)-1].Dist)
	default:
		return d.Sample(o.r)
	}
}

// KS returns the two-sample Kolmogorov–Smirnov statistic of a and b:
// the largest gap between their empirical CDFs, with tied values
// stepping both CDFs at once, so atoms that sit at the same value in
// both samples (clamped bounds, constants) add no gap. It sorts a and b
// in place.
func KS(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	n, m := float64(len(a)), float64(len(b))
	var i, j int
	d := 0.0
	for i < len(a) && j < len(b) {
		v := math.Min(a[i], b[j])
		for i < len(a) && a[i] == v {
			i++
		}
		for j < len(b) && b[j] == v {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/n-float64(j)/m))
	}
	return d
}

// KSCritical is the two-sample KS critical value at significance alpha
// for samples of n and m values (the asymptotic c(α)·√((n+m)/(n·m))).
// For samples with ties it is conservative.
func KSCritical(n, m int, alpha float64) float64 {
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(n+m)/(float64(n)*float64(m)))
}
