package span

import (
	"wsmalloc/internal/mem"
	"wsmalloc/internal/snapshot"
)

// EncodeState serializes one span's full occupancy state. List linkage
// is not serialized — the owning tier re-links restored spans in its
// own list order.
func (s *Span) EncodeState(e *snapshot.Encoder) {
	e.U64(uint64(s.Start))
	e.Int(s.Pages)
	e.Int(s.ClassIndex)
	e.Int(s.ObjSize)
	e.Int(s.capacity)
	e.Int(s.live)
	e.Int(s.hint)
	e.I64(s.BornAt)
	e.I64(s.Seq)
	e.Len(len(s.bitmap))
	for _, w := range s.bitmap {
		e.U64(w)
	}
}

// DecodeState reconstructs a span saved by EncodeState, validating the
// geometry so a corrupted blob cannot build a span that panics later.
func DecodeState(d *snapshot.Decoder) *Span {
	s := &Span{}
	start := d.U64()
	s.Pages = d.Int()
	s.ClassIndex = d.Int()
	s.ObjSize = d.Int()
	s.capacity = d.Int()
	s.live = d.Int()
	s.hint = d.Int()
	s.BornAt = d.I64()
	s.Seq = d.I64()
	n := d.Len(8)
	if d.Err() != nil {
		return nil
	}
	if s.Pages <= 0 || s.ObjSize <= 0 || s.capacity <= 0 ||
		s.live < 0 || s.live > s.capacity ||
		n != (s.capacity+63)/64 || s.hint < 0 || s.hint >= n ||
		!mem.InAddressSpace(mem.PageID(start), s.Pages) {
		return nil
	}
	s.Start = mem.PageID(start)
	s.bitmap = make([]uint64, n)
	for i := range s.bitmap {
		s.bitmap[i] = d.U64()
	}
	if d.Err() != nil {
		return nil
	}
	return s
}
