package rng

import "wsmalloc/internal/snapshot"

// EncodeState serializes the generator's full cursor, the PCG state and
// stream selector, so a restored stream continues with exactly the
// draws the uninterrupted stream would have produced. No variate is
// cached between calls, so there is nothing else to save.
func (r *RNG) EncodeState(e *snapshot.Encoder) {
	e.Section("rng")
	e.U64(r.state)
	e.U64(r.inc)
}

// DecodeState restores a cursor saved by EncodeState.
func (r *RNG) DecodeState(d *snapshot.Decoder) {
	d.Section("rng")
	r.state = d.U64()
	r.inc = d.U64()
}
