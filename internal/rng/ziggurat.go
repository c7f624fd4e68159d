package rng

import "math"

// The normal and exponential variates come from the ziggurat method of
// Marsaglia & Tsang, "The Ziggurat Method for Generating Random
// Variables", J. Stat. Software 5(8), 2000, laid out the way Go's
// math/rand normal.go and exp.go lay it out (BSD licence): constant
// tables, one 32-bit draw that picks the strip and the candidate at
// once, and a fast accept that takes well over 98% of draws without any
// Exp or Log. Only the wedge test and the tail past the base strip call
// into package math.

const (
	// zigNormR is the right edge of the normal ziggurat's base strip.
	zigNormR = 3.442619855899
	// zigExpR is the right edge of the exponential ziggurat's base strip.
	zigExpR = 7.69711747013104972
)

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 {
	for {
		j := int32(r.next32())
		i := j & 0x7f
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			// The tail beyond the base strip, by Marsaglia's method:
			// 1−u keeps the argument of Log in (0, 1].
			for {
				x = -math.Log(1-r.Float64()) * (1 / zigNormR)
				y := -math.Log(1 - r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigNormR + x
			}
			return -zigNormR - x
		}
		if fn[i]+float32(r.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	for {
		j := r.next32()
		i := j & 0xff
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		if i == 0 {
			// The tail is memoryless: the base edge plus a fresh
			// exponential, with 1−u in (0, 1].
			return zigExpR - math.Log(1-r.Float64())
		}
		if fe[i]+float32(r.Float64())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}
