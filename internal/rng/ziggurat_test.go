package rng

import (
	"math"
	"testing"
)

// zigNormTables runs Marsaglia & Tsang's set-up for the 128-strip normal
// ziggurat (r = 3.442619855899, strip area 9.91256303526217e-3).
func zigNormTables() (k [128]uint32, w, f [128]float32) {
	const m1 = 1 << 31
	const v = 9.91256303526217e-3
	dn, tn := zigNormR, zigNormR
	q := v / math.Exp(-0.5*dn*dn)
	k[0] = uint32((dn / q) * m1)
	w[0], w[127] = float32(q/m1), float32(dn/m1)
	f[0], f[127] = 1, float32(math.Exp(-0.5*dn*dn))
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(v/dn+math.Exp(-0.5*dn*dn)))
		k[i+1] = uint32((dn / tn) * m1)
		tn = dn
		f[i] = float32(math.Exp(-0.5 * dn * dn))
		w[i] = float32(dn / m1)
	}
	return
}

// zigExpTables runs Marsaglia & Tsang's set-up for the 256-strip
// exponential ziggurat (r = 7.697117470131487, strip area
// 3.949659822581572e-3).
func zigExpTables() (k [256]uint32, w, f [256]float32) {
	const m2 = 1 << 32
	const v = 3.949659822581572e-3
	de, te := 7.697117470131487, 7.697117470131487
	q := v / math.Exp(-de)
	k[0] = uint32((de / q) * m2)
	w[0], w[255] = float32(q/m2), float32(de/m2)
	f[0], f[255] = 1, float32(math.Exp(-de))
	for i := 254; i >= 1; i-- {
		de = -math.Log(v/de + math.Exp(-de))
		k[i+1] = uint32((de / te) * m2)
		te = de
		f[i] = float32(math.Exp(-de))
		w[i] = float32(de / m2)
	}
	return
}

// TestZigguratTables checks the committed constant tables against the
// set-up procedure. Exp and Log may differ in the last bit across
// platforms, so each entry may sit one unit away.
func TestZigguratTables(t *testing.T) {
	near32 := func(a, b float32) bool {
		return a == b || math.Nextafter32(a, b) == b
	}
	nearU := func(a, b uint32) bool { return a == b || a+1 == b || b+1 == a }
	k, w, f := zigNormTables()
	for i := range k {
		if !nearU(k[i], kn[i]) || !near32(w[i], wn[i]) || !near32(f[i], fn[i]) {
			t.Errorf("normal strip %d: table (%#x, %g, %g), set-up gives (%#x, %g, %g)", i, kn[i], wn[i], fn[i], k[i], w[i], f[i])
		}
	}
	ke2, we2, fe2 := zigExpTables()
	for i := range ke2 {
		if !nearU(ke2[i], ke[i]) || !near32(we2[i], we[i]) || !near32(fe2[i], fe[i]) {
			t.Errorf("exponential strip %d: table (%#x, %g, %g), set-up gives (%#x, %g, %g)", i, ke[i], we[i], fe[i], ke2[i], we2[i], fe2[i])
		}
	}
}

// TestZigguratFastPathOneDraw checks the common case draws a single
// 32-bit value: over many variates the generator advances less than
// 1.1 times per variate (the few draws that miss the fast accept take a
// Float64, two more 32-bit draws, and may start over).
func TestZigguratFastPathOneDraw(t *testing.T) {
	const n = 100_000
	for _, tc := range []struct {
		name string
		draw func(*RNG) float64
	}{
		{"NormFloat64", (*RNG).NormFloat64},
		{"ExpFloat64", (*RNG).ExpFloat64},
	} {
		r, ref := New(7), New(7)
		for i := 0; i < n; i++ {
			tc.draw(r)
		}
		steps := 0
		for ref.state != r.state {
			ref.next32()
			steps++
		}
		if per := float64(steps) / n; per > 1.1 {
			t.Errorf("%s: %.3f 32-bit draws per variate, want ≈ 1", tc.name, per)
		}
	}
}
