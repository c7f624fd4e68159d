package rng

import (
	"fmt"
	"math"
	"sort"
)

// Zipf draws integers in [0, n) with probability proportional to
// 1/(rank+1)^s. It precomputes the CDF, so construction is O(n) and each
// draw is O(log n). Warehouse binary popularity and allocation-site
// popularity are both approximately Zipfian, which is what produces the
// "top 50 binaries cover only ~50% of malloc cycles" shape in Fig. 3.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(r *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: r}
}

// Draw returns the next rank.
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	return searchCDF(z.cdf, u)
}

// Weights returns the probability mass of each rank.
func (z *Zipf) Weights() []float64 {
	w := make([]float64, len(z.cdf))
	prev := 0.0
	for i, c := range z.cdf {
		w[i] = c - prev
		prev = c
	}
	return w
}

// Dist is a sampler of float64 values; all workload size and lifetime
// models satisfy it.
type Dist interface {
	// Sample draws the next value using the provided generator.
	Sample(r *RNG) float64
}

// Constant is a Dist that always returns V.
type Constant float64

// Sample implements Dist.
func (c Constant) Sample(*RNG) float64 { return float64(c) }

// Uniform is a Dist over [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// LogNormalDist is a Dist with underlying normal (Mu, Sigma); values are
// optionally clamped to [Min, Max] when those bounds are non-zero.
type LogNormalDist struct {
	Mu, Sigma float64
	Min, Max  float64
}

// Sample implements Dist.
func (d LogNormalDist) Sample(r *RNG) float64 {
	v := r.LogNormal(d.Mu, d.Sigma)
	if d.Min != 0 && v < d.Min {
		v = d.Min
	}
	if d.Max != 0 && v > d.Max {
		v = d.Max
	}
	return v
}

// ParetoDist is a Dist with scale Xm and shape Alpha, optionally capped at
// Max when Max > 0. Heavy-tailed object lifetimes are Pareto-like.
type ParetoDist struct {
	Xm, Alpha float64
	Max       float64
}

// Sample implements Dist.
func (d ParetoDist) Sample(r *RNG) float64 {
	v := r.Pareto(d.Xm, d.Alpha)
	if d.Max > 0 && v > d.Max {
		v = d.Max
	}
	return v
}

// ExpDist is an exponential Dist with the given Mean.
type ExpDist struct{ Mean float64 }

// Sample implements Dist.
func (d ExpDist) Sample(r *RNG) float64 { return d.Mean * r.ExpFloat64() }

// A LogDraw is one value X drawn in log space: Log is ln X. A draw that
// landed on an exactly known value — a clamp bound or a constant —
// carries that value too, so Value returns it bit for bit instead of
// exp(ln X), and an atom at a clamp stays exactly where it was.
type LogDraw struct {
	Log   float64
	exact float64 // X when known exactly, else 0
}

// LogOf returns the draw of the known value v; Log is -Inf for v <= 0.
func LogOf(v float64) LogDraw {
	if v <= 0 {
		return LogDraw{Log: math.Inf(-1), exact: v}
	}
	return LogDraw{Log: math.Log(v), exact: v}
}

// Value returns X.
func (d LogDraw) Value() float64 {
	if d.exact != 0 {
		return d.exact
	}
	return math.Exp(d.Log)
}

// LogDist is a Dist that can also draw in log space, where a caller that
// transforms the logarithm (a power law is a multiply there) skips the
// Exp and Log pair a linear draw would cost.
type LogDist interface {
	Dist
	SampleLog(r *RNG) LogDraw
}

// Compile returns d ready to draw in both spaces. A *Mixture is
// returned as it is: NewMixture compiled its branches. Any other Dist is
// compiled here, so callers that draw from it repeatedly should compile
// it once.
func Compile(d Dist) LogDist {
	if m, ok := d.(*Mixture); ok {
		return m
	}
	b := compile(d)
	return &b
}

// branchKind names the distributions a branch resolves to parameters.
type branchKind uint8

const (
	branchOther branchKind = iota
	branchLogNormal
	branchPareto
	branchConstant
)

// branch is one distribution compiled for draws in log space: the kinds
// the profiles are built from are resolved to parameters with their
// logarithms precomputed, and any other Dist is drawn through its
// interface. A linear draw is the Dist's own Sample. Both draw the same
// variates from the generator, so a caller may switch between them
// without moving the stream.
type branch struct {
	kind branchKind
	// a and b are ln X = a + b·N for a log-normal (μ, σ), a + b·E for a
	// Pareto (ln xm, 1/α), and a for a constant (ln v, with v in min).
	a, b float64
	// lo and hi clamp ln X (±Inf when unset); min and max are the values
	// they stand for.
	lo, hi   float64
	min, max float64
	dist     Dist
}

func compile(d Dist) branch {
	b := branch{kind: branchOther, lo: math.Inf(-1), hi: math.Inf(1), dist: d}
	switch d := d.(type) {
	case LogNormalDist:
		b.kind, b.a, b.b = branchLogNormal, d.Mu, d.Sigma
		if d.Min != 0 {
			b.lo, b.min = math.Log(d.Min), d.Min
		}
		if d.Max != 0 {
			b.hi, b.max = math.Log(d.Max), d.Max
		}
	case ParetoDist:
		b.kind, b.a, b.b = branchPareto, math.Log(d.Xm), 1/d.Alpha
		if d.Max > 0 {
			b.hi, b.max = math.Log(d.Max), d.Max
		}
	case Constant:
		c := LogOf(float64(d))
		b.kind, b.a, b.min = branchConstant, c.Log, c.exact
	}
	return b
}

// SampleLog implements LogDist.
func (b *branch) SampleLog(r *RNG) LogDraw {
	var l float64
	switch b.kind {
	case branchLogNormal:
		l = b.a + b.b*r.NormFloat64()
	case branchPareto:
		l = b.a + b.b*r.ExpFloat64()
	case branchConstant:
		return LogDraw{Log: b.a, exact: b.min}
	default:
		if ld, ok := b.dist.(LogDist); ok {
			return ld.SampleLog(r)
		}
		return LogOf(b.dist.Sample(r))
	}
	if l < b.lo {
		return LogDraw{Log: b.lo, exact: b.min}
	}
	if l > b.hi {
		return LogDraw{Log: b.hi, exact: b.max}
	}
	return LogDraw{Log: l}
}

// Sample implements Dist.
func (b *branch) Sample(r *RNG) float64 { return b.dist.Sample(r) }

// Component is one branch of a Mixture.
type Component struct {
	Weight float64
	Dist   Dist
}

// Mixture is a weighted mixture of distributions. The fleet object-size
// distribution (Fig. 7) and the per-size-band lifetime distributions
// (Fig. 8) are modeled as mixtures. NewMixture compiles each branch
// once, so a draw can stay in log space (SampleLog).
type Mixture struct {
	cdf      []float64
	branches []branch
}

// NewMixture builds a mixture; weights are normalized and must sum to a
// positive value.
func NewMixture(components ...Component) *Mixture {
	if len(components) == 0 {
		panic("rng: empty mixture")
	}
	total := 0.0
	for _, c := range components {
		if c.Weight < 0 {
			panic(fmt.Sprintf("rng: negative mixture weight %v", c.Weight))
		}
		total += c.Weight
	}
	if total <= 0 {
		panic("rng: mixture weights sum to zero")
	}
	m := &Mixture{
		cdf:      make([]float64, len(components)),
		branches: make([]branch, len(components)),
	}
	acc := 0.0
	for i, c := range components {
		acc += c.Weight / total
		m.cdf[i] = acc
		m.branches[i] = compile(c.Dist)
	}
	return m
}

// pick draws the branch of the next value.
func (m *Mixture) pick(r *RNG) *branch {
	i := searchCDF(m.cdf, r.Float64())
	if i >= len(m.branches) {
		i = len(m.branches) - 1
	}
	return &m.branches[i]
}

// Sample implements Dist.
func (m *Mixture) Sample(r *RNG) float64 { return m.pick(r).Sample(r) }

// SampleLog implements LogDist: it draws exactly what Sample draws.
func (m *Mixture) SampleLog(r *RNG) LogDraw { return m.pick(r).SampleLog(r) }

// searchCDF returns the smallest index i with cdf[i] >= u, exactly as
// sort.SearchFloat64s does. Mixture and Discrete CDFs are a handful of
// entries, where a forward scan beats the binary search's unpredictable
// branches; long CDFs (Zipf ranks) still take the binary path.
func searchCDF(cdf []float64, u float64) int {
	if len(cdf) <= 8 {
		for i, c := range cdf {
			if c >= u {
				return i
			}
		}
		return len(cdf)
	}
	return sort.SearchFloat64s(cdf, u)
}

// Components returns the mixture branches (normalized weights).
func (m *Mixture) Components() []Component {
	out := make([]Component, len(m.branches))
	prev := 0.0
	for i, b := range m.branches {
		out[i] = Component{Weight: m.cdf[i] - prev, Dist: b.dist}
		prev = m.cdf[i]
	}
	return out
}

// Discrete samples from an explicit finite distribution of (value, weight)
// pairs; used for size-class-aligned object size models.
type Discrete struct {
	values []float64
	cdf    []float64
}

// NewDiscrete builds a Discrete sampler. len(values) must equal
// len(weights) and weights must sum to a positive value.
func NewDiscrete(values, weights []float64) *Discrete {
	if len(values) != len(weights) || len(values) == 0 {
		panic("rng: mismatched discrete distribution")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative discrete weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: discrete weights sum to zero")
	}
	d := &Discrete{values: append([]float64(nil), values...), cdf: make([]float64, len(weights))}
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		d.cdf[i] = acc
	}
	return d
}

// Sample implements Dist.
func (d *Discrete) Sample(r *RNG) float64 {
	u := r.Float64()
	i := searchCDF(d.cdf, u)
	if i >= len(d.values) {
		i = len(d.values) - 1
	}
	return d.values[i]
}
