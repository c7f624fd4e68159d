package span

import (
	"testing"
	"testing/quick"

	"wsmalloc/internal/mem"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/snapshot"
)

func newTestSpan(capacity int) *Span {
	// 16B objects on one 8 KiB page unless capacity forces otherwise.
	objSize := 16
	pages := (capacity*objSize + mem.PageSize - 1) / mem.PageSize
	if pages == 0 {
		pages = 1
	}
	return New(mem.PageID(1000), pages, 3, objSize, capacity)
}

func TestAllocateFreeRoundTrip(t *testing.T) {
	s := newTestSpan(512)
	if s.Capacity() != 512 || !s.Empty() {
		t.Fatal("fresh span state wrong")
	}
	addrs := map[uint64]bool{}
	for i := 0; i < 512; i++ {
		a, ok := s.Allocate()
		if !ok {
			t.Fatalf("allocation %d failed", i)
		}
		if addrs[a] {
			t.Fatalf("duplicate address %#x", a)
		}
		if !s.Contains(a) {
			t.Fatalf("address %#x outside span", a)
		}
		addrs[a] = true
	}
	if !s.Full() {
		t.Fatal("span should be full")
	}
	if _, ok := s.Allocate(); ok {
		t.Fatal("allocation from full span succeeded")
	}
	for a := range addrs {
		s.FreeAddr(a)
	}
	if !s.Empty() {
		t.Fatalf("span not empty after freeing all: live=%d", s.Live())
	}
}

func TestLiveCountTracking(t *testing.T) {
	s := newTestSpan(100)
	a1, _ := s.Allocate()
	a2, _ := s.Allocate()
	if s.Live() != 2 || s.FreeSlots() != 98 {
		t.Fatalf("live=%d free=%d", s.Live(), s.FreeSlots())
	}
	s.FreeAddr(a1)
	if s.Live() != 1 {
		t.Fatalf("live=%d after free", s.Live())
	}
	if !s.IsAllocated(a2) || s.IsAllocated(a1) {
		t.Fatal("IsAllocated wrong")
	}
	if s.LiveBytes() != 16 {
		t.Fatalf("LiveBytes = %d", s.LiveBytes())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	s := newTestSpan(10)
	a, _ := s.Allocate()
	s.FreeAddr(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	s.FreeAddr(a)
}

func TestMisalignedFreePanics(t *testing.T) {
	s := newTestSpan(10)
	a, _ := s.Allocate()
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned free must panic")
		}
	}()
	s.FreeAddr(a + 1)
}

func TestFreeBelowBasePanics(t *testing.T) {
	s := newTestSpan(10)
	defer func() {
		if recover() == nil {
			t.Fatal("free below base must panic")
		}
	}()
	s.FreeAddr(s.Start.Addr() - 16)
}

func TestReuseAfterFree(t *testing.T) {
	s := newTestSpan(4)
	var addrs []uint64
	for i := 0; i < 4; i++ {
		a, _ := s.Allocate()
		addrs = append(addrs, a)
	}
	s.FreeAddr(addrs[2])
	a, ok := s.Allocate()
	if !ok || a != addrs[2] {
		t.Fatalf("expected slot reuse of %#x, got %#x", addrs[2], a)
	}
}

func TestBytesAccounting(t *testing.T) {
	s := New(mem.PageID(0), 2, 5, 100, 163)
	if s.Bytes() != 2*mem.PageSize {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
}

func TestLargeSpan(t *testing.T) {
	s := New(mem.PageID(64), 40, LargeClass, 40*mem.PageSize, 1)
	a, ok := s.Allocate()
	if !ok || a != mem.PageID(64).Addr() {
		t.Fatalf("large span alloc = %#x, %v", a, ok)
	}
	if !s.Full() {
		t.Fatal("single-object span should be full")
	}
	s.FreeAddr(a)
	if !s.Empty() {
		t.Fatal("large span should be empty")
	}
}

func TestInvalidSpanPanics(t *testing.T) {
	for _, c := range []struct{ pages, objSize, capacity int }{
		{0, 8, 1}, {1, 0, 1}, {1, 8, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) should panic", c)
				}
			}()
			New(0, c.pages, 0, c.objSize, c.capacity)
		}()
	}
}

func TestAllocateFreeProperty(t *testing.T) {
	r := rng.New(77)
	f := func(ops []bool) bool {
		s := newTestSpan(64)
		var live []uint64
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				if a, ok := s.Allocate(); ok {
					live = append(live, a)
				} else if len(live) != 64 {
					return false // full only at capacity
				}
			} else {
				i := r.Intn(len(live))
				s.FreeAddr(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if s.Live() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestListPushRemove(t *testing.T) {
	var l List
	s1, s2, s3 := newTestSpan(8), newTestSpan(8), newTestSpan(8)
	l.PushFront(s1)
	l.PushFront(s2)
	l.PushBack(s3)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Front() != s2 {
		t.Fatal("Front wrong")
	}
	var order []*Span
	l.Each(func(s *Span) { order = append(order, s) })
	if order[0] != s2 || order[1] != s1 || order[2] != s3 {
		t.Fatal("list order wrong")
	}
	l.Remove(s1) // middle
	if l.Len() != 2 || s1.InList() {
		t.Fatal("remove middle failed")
	}
	if got := l.PopFront(); got != s2 {
		t.Fatal("PopFront wrong")
	}
	l.Remove(s3) // only element
	if !l.Empty() {
		t.Fatal("list should be empty")
	}
	if l.PopFront() != nil {
		t.Fatal("PopFront on empty should be nil")
	}
}

func TestListMembershipPanics(t *testing.T) {
	var a, b List
	s := newTestSpan(8)
	a.PushFront(s)
	t.Run("double insert", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		b.PushFront(s)
	})
	t.Run("remove from wrong list", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		b.Remove(s)
	})
}

func TestListMoveBetweenLists(t *testing.T) {
	var a, b List
	spans := make([]*Span, 10)
	for i := range spans {
		spans[i] = newTestSpan(8)
		a.PushBack(spans[i])
	}
	for !a.Empty() {
		b.PushBack(a.PopFront())
	}
	if b.Len() != 10 || a.Len() != 0 {
		t.Fatalf("a=%d b=%d", a.Len(), b.Len())
	}
	i := 0
	b.Each(func(s *Span) {
		if s != spans[i] {
			t.Fatalf("order broken at %d", i)
		}
		i++
	})
}

func BenchmarkAllocateFree(b *testing.B) {
	s := newTestSpan(512)
	addrs := make([]uint64, 0, 512)
	for i := 0; i < b.N; i++ {
		if a, ok := s.Allocate(); ok {
			addrs = append(addrs, a)
		} else {
			for _, a := range addrs {
				s.FreeAddr(a)
			}
			addrs = addrs[:0]
		}
	}
}

// TestRecycleMatchesFreshSpan drains a span, recycles it at a new
// placement, and checks the recycled struct reproduces a fresh span's
// exact allocation sequence — the property that lets the central free
// list pool span structs without breaking bit-identical goldens.
func TestRecycleMatchesFreshSpan(t *testing.T) {
	s := newTestSpan(64)
	var first []uint64
	for i := 0; i < 64; i++ {
		a, ok := s.Allocate()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		first = append(first, a)
	}
	// Free in a scrambled order so the hint and bitmap end up dirty.
	for i := range first {
		s.FreeAddr(first[(i*13+5)%64])
	}
	oldStart := s.Start
	start2 := s.Start + mem.PageID(128)
	s.Recycle(start2)
	if s.Live() != 0 || s.Seq != 0 || s.BornAt != 0 || s.Start != start2 {
		t.Fatalf("recycle left dirty state: %+v", s)
	}
	for i := 0; i < 64; i++ {
		a, ok := s.Allocate()
		if !ok {
			t.Fatalf("post-recycle alloc %d failed", i)
		}
		if a-start2.Addr() != first[i]-oldStart.Addr() {
			t.Fatalf("alloc %d: recycled offset %#x, fresh offset %#x",
				i, a-start2.Addr(), first[i]-oldStart.Addr())
		}
	}
}

// TestRecycleRejectsLiveSpan checks the safety interlock: recycling a
// span that still has live objects (or sits on a list) must panic
// rather than silently alias live memory.
func TestRecycleRejectsLiveSpan(t *testing.T) {
	s := newTestSpan(8)
	if _, ok := s.Allocate(); !ok {
		t.Fatal("alloc failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Recycle of a live span did not panic")
		}
	}()
	s.Recycle(s.Start)
}

// TestDecodeRejectsSpanOutsideAddressSpace: a blob naming a span whose
// pages run past the simulated address space decodes to nil, so no
// pagemap is ever asked to index it.
func TestDecodeRejectsSpanOutsideAddressSpace(t *testing.T) {
	for _, tc := range []struct {
		start mem.PageID
		pages int
		ok    bool
	}{
		{1 << 20, 4, true},
		{1<<35 - 4, 4, true},
		{1<<35 - 3, 4, false},
		{1 << 40, 1, false},
	} {
		e := snapshot.NewEncoder()
		New(tc.start, tc.pages, 1, 64, 64).EncodeState(e)
		d, err := snapshot.NewDecoder(e.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if got := DecodeState(d) != nil; got != tc.ok {
			t.Errorf("span at page %#x, %d pages: decoded=%v, want %v", tc.start, tc.pages, got, tc.ok)
		}
	}
}
