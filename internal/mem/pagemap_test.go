package mem

import (
	"math/rand"
	"testing"
)

// pmMidSpan is the number of pages one mid node covers; crossing a
// multiple of it moves to the next root slot.
const pmMidSpan = pmLeafSize * pmMidSize

// rangeOp is one SetRange (set) or ClearRange call.
type rangeOp struct {
	set bool
	p   PageID
	n   int
	v   int
}

// applyPerPage is the reference for SetRange/ClearRange: one Set or Clear
// per page.
func applyPerPage(m *PageMap[int], op rangeOp) {
	for i := 0; i < op.n; i++ {
		if op.set {
			m.Set(op.p+PageID(i), op.v)
		} else {
			m.Clear(op.p + PageID(i))
		}
	}
}

func applyRange(m *PageMap[int], op rangeOp) {
	if op.set {
		m.SetRange(op.p, op.n, op.v)
	} else {
		m.ClearRange(op.p, op.n)
	}
}

// requireSame compares the two maps' Len and every page of [lo, hi).
func requireSame(t *testing.T, step int, got, want *PageMap[int], lo, hi PageID) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("step %d: Len %d, per-page reference %d", step, got.Len(), want.Len())
	}
	for p := lo; p < hi; p++ {
		gv, gok := got.Get(p)
		wv, wok := want.Get(p)
		if gv != wv || gok != wok {
			t.Fatalf("step %d: page %#x holds %d,%v, reference %d,%v", step, p, gv, gok, wv, wok)
		}
	}
}

func TestPageMapRangeMatchesPerPage(t *testing.T) {
	leafEdge := PageID(3 * pmLeafSize)
	midEdge := PageID(pmMidSpan)
	cases := []struct {
		name string
		ops  []rangeOp
	}{
		{"single page", []rangeOp{{true, 5, 1, 1}, {true, 5, 1, 2}, {false, 5, 1, 0}, {false, 5, 1, 0}}},
		{"within one word", []rangeOp{{true, 70, 20, 1}, {false, 75, 5, 0}}},
		{"across a leaf edge", []rangeOp{{true, leafEdge - 10, 20, 1}, {false, leafEdge - 3, 6, 0}}},
		{"one whole leaf", []rangeOp{{true, leafEdge, pmLeafSize, 1}, {false, leafEdge, pmLeafSize, 0}}},
		{"32 MiB frame, unaligned", []rangeOp{{true, leafEdge - 100, pmLeafSize, 3}, {false, leafEdge - 100, pmLeafSize, 0}}},
		{"across a mid edge", []rangeOp{{true, midEdge - 5000, 10000, 1}, {false, midEdge - 1, 2, 0}}},
		{"re-set overlapping ranges", []rangeOp{
			{true, leafEdge - 64, 128, 1}, {true, leafEdge - 100, 300, 2}, {true, leafEdge - 64, 64, 3},
		}},
		{"clear partly unset ranges", []rangeOp{
			{true, leafEdge - 30, 10, 1}, {true, leafEdge + 5, 10, 2},
			{false, leafEdge - 50, 200, 0}, {false, midEdge - 10, 20, 0},
		}},
		{"empty ranges", []rangeOp{{true, 9, 0, 1}, {false, 9, 0, 0}, {true, 9, -1, 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := NewPageMap[int](), NewPageMap[int]()
			for i, op := range c.ops {
				applyRange(got, op)
				applyPerPage(want, op)
				lo := op.p - 2*pmLeafSize
				if op.p < 2*pmLeafSize {
					lo = 0
				}
				requireSame(t, i, got, want, lo, op.p+PageID(max(op.n, 0))+2*pmLeafSize)
			}
		})
	}
}

// TestPageMapRangeRandom drives random overlapping set and clear ranges
// around a mid edge, where ranges cross leaf and mid boundaries, and
// compares against the per-page reference after every op.
func TestPageMapRangeRandom(t *testing.T) {
	const window = 3 * pmLeafSize
	lo := PageID(pmMidSpan - window)
	got, want := NewPageMap[int](), NewPageMap[int]()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		op := rangeOp{
			set: r.Intn(2) == 0,
			p:   lo + PageID(r.Intn(2*window)),
			v:   r.Intn(1000),
		}
		switch r.Intn(3) {
		case 0:
			op.n = 1
		case 1:
			op.n = 1 + r.Intn(130)
		default:
			op.n = 1 + r.Intn(2*pmLeafSize)
		}
		applyRange(got, op)
		applyPerPage(want, op)
		requireSame(t, i, got, want, lo, lo+4*window)
	}
}

// TestPageMapRangeOutOfRangePanicsFirst requires a range that runs past
// the simulated address space to panic before it touches any page.
func TestPageMapRangeOutOfRangePanicsFirst(t *testing.T) {
	last := PageID(1<<pmPageBits - 3)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic for a range past the address space", name)
			}
		}()
		f()
	}

	m := NewPageMap[int]()
	mustPanic("SetRange", func() { m.SetRange(last, 5, 1) })
	if m.Len() != 0 {
		t.Fatalf("SetRange mutated %d pages before panicking", m.Len())
	}
	mustPanic("SetRange from outside", func() { m.SetRange(1<<pmPageBits, 1, 1) })

	m.SetRange(last, 3, 7)
	mustPanic("ClearRange", func() { m.ClearRange(last, 5) })
	if m.Len() != 3 {
		t.Fatalf("ClearRange mutated pages before panicking: Len %d", m.Len())
	}
	for i := PageID(0); i < 3; i++ {
		if v, ok := m.Get(last + i); !ok || v != 7 {
			t.Fatalf("page %#x lost its value: %d,%v", last+i, v, ok)
		}
	}
}
