package centralfreelist

import (
	"math/bits"

	"wsmalloc/internal/span"
)

// Selector selects the central free list's span-management policy: how
// many occupancy lists a class keeps, which list a span with a given
// live count belongs in, and which span serves the next allocation. The
// zero value is the legacy singleton list.
type Selector uint8

const (
	// SelectorLegacy is the pre-redesign policy: one list, allocations
	// from its front, no occupancy ordering.
	SelectorLegacy Selector = iota
	// SelectorPrioritized is the paper's §4.3 policy: NumLists
	// occupancy-indexed lists filed by max(0, L-log2(live)) with
	// allocations served from the front of the fullest nonempty list,
	// so lightly-used spans drain and return to the pageheap.
	SelectorPrioritized
	// SelectorBestFit keeps the prioritized occupancy lists but, within
	// the fullest nonempty bucket, serves the span with the lowest start
	// address instead of the most recently relinked one. Address-ordered
	// placement concentrates live objects at the bottom of the address
	// space, which empties high spans sooner and tightens the hugepage
	// footprint at a small scan cost per batch.
	SelectorBestFit
)

// lists is the number of occupancy lists cfg keeps.
func (cfg Config) lists() int {
	if cfg.Selector == SelectorLegacy {
		return 1
	}
	return cfg.NumLists
}

// listIndexFor maps a span's live allocation count to its list: the
// singleton list for the legacy selector, otherwise the paper's
// max(0, L-log2(live)) rule clamped into [0, L-1].
func (l *List) listIndexFor(live int) int {
	if l.cfg.Selector == SelectorLegacy {
		return 0
	}
	numLists := len(l.nonempty)
	if live <= 0 {
		return numLists - 1
	}
	idx := numLists - 1 - (bits.Len(uint(live)) - 1)
	if idx < 0 {
		idx = 0
	}
	return idx
}

// pick unlinks and returns the span the next allocation batch should
// fill, plus the list index it came from, or (nil, -1) when every
// nonempty list is empty and a fresh span must be grown. The lowest
// nonempty list serves: best-fit takes its lowest-address span, the
// other selectors its front.
func (l *List) pick() (*span.Span, int) {
	for i := range l.nonempty {
		s := l.nonempty[i].Front()
		if s == nil {
			continue
		}
		if l.cfg.Selector == SelectorBestFit {
			s = lowestStart(&l.nonempty[i])
		}
		l.nonempty[i].Remove(s)
		return s, i
	}
	return nil, -1
}

// lowestStart returns the span of a nonempty list with the lowest start
// address.
func lowestStart(sl *span.List) *span.Span {
	best := sl.Front()
	sl.Each(func(s *span.Span) {
		if s.Start < best.Start {
			best = s
		}
	})
	return best
}
