package pageheap

import (
	"testing"

	"wsmalloc/internal/mem"
)

// TestTrackerPoolRecyclesDrainedTrackers proves the hpTracker freelist
// reuses structs: draining a hugepage parks its tracker on
// freeTrackers, and the next AddHugePage pops that exact struct back
// fully zeroed.
func TestTrackerPoolRecyclesDrainedTrackers(t *testing.T) {
	o, f, sink := newTestFiller(t)
	h := mustMap(o, 1)
	f.AddHugePage(h)
	p, ok := f.Alloc(10)
	if !ok {
		t.Fatal("alloc failed")
	}
	tracked := f.byID[h]
	f.Free(p, 10)
	if len(sink.got) != 1 || sink.got[0] != h {
		t.Fatalf("drained hugepage not returned via onEmpty: %v", sink.got)
	}
	if len(f.freeTrackers) != 1 || f.freeTrackers[0] != tracked {
		t.Fatalf("drained tracker not pooled: pool=%v", f.freeTrackers)
	}

	h2 := mustMap(o, 1)
	f.AddHugePage(h2)
	if len(f.freeTrackers) != 0 {
		t.Fatal("AddHugePage did not pop the pooled tracker")
	}
	t2 := f.byID[h2]
	if t2 != tracked {
		t.Fatal("AddHugePage allocated a fresh tracker instead of recycling")
	}
	if t2.usedCount != 0 || t2.releasedCount != 0 || popcount(t2.used[:]) != 0 || !t2.intact {
		t.Fatalf("recycled tracker state not reset: %+v", t2)
	}
	if vs := f.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit after tracker recycle: %v", vs)
	}
}

// TestTrackerPoolIsBounded drains more hugepages than maxFreeTrackers
// and checks the pool stays within its bound with no struct pooled
// twice (a double-park would alias two future hugepages' accounting).
func TestTrackerPoolIsBounded(t *testing.T) {
	o, f, _ := newTestFiller(t)
	const pages = maxFreeTrackers + 8
	var ids []mem.PageID
	for i := 0; i < pages; i++ {
		f.AddHugePage(mustMap(o, 1))
		p, ok := f.Alloc(mem.PagesPerHugePage) // fill whole hugepage
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		ids = append(ids, p)
	}
	for _, p := range ids {
		f.Free(p, mem.PagesPerHugePage)
	}
	if len(f.freeTrackers) != maxFreeTrackers {
		t.Fatalf("pool size %d, want the %d bound", len(f.freeTrackers), maxFreeTrackers)
	}
	seen := make(map[*hpTracker]bool, len(f.freeTrackers))
	for _, tr := range f.freeTrackers {
		if seen[tr] {
			t.Fatal("same tracker struct pooled twice")
		}
		seen[tr] = true
	}
}
