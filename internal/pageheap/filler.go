package pageheap

import (
	"fmt"
	"math/bits"

	"wsmalloc/internal/check"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/telemetry"
)

// Lifetime classifies a span allocation for the lifetime-aware filler.
// The classification is static: the paper uses span capacity as the
// lifetime proxy (capacity < C means the span dies quickly, Fig. 16).
type Lifetime int

const (
	// LifetimeLong marks spans expected to live long (high capacity).
	LifetimeLong Lifetime = iota
	// LifetimeShort marks spans expected to be returned soon.
	LifetimeShort
	numLifetimes
)

func (l Lifetime) String() string {
	if l == LifetimeShort {
		return "short"
	}
	return "long"
}

// hpTracker records the page-level state of one hugepage owned by the
// filler.
type hpTracker struct {
	id mem.HugePageID
	// used marks pages currently allocated to spans.
	used bitmap256
	// released marks free pages that were subreleased to the OS.
	released      bitmap256
	usedCount     int
	releasedCount int
	longestFree   int
	// donated is true for tail hugepages donated by large allocations;
	// the filler avoids them unless nothing else fits.
	donated bool
	// lastFreeNs is the virtual time pages last became free on this
	// hugepage; the free-span age histograms in the pageheapz report
	// measure how long fragmentation has been sitting here.
	lastFreeNs int64
	// intact mirrors os.IsIntact for this hugepage while the filler owns
	// it. The only transition under filler ownership is intact→broken at
	// the first subrelease (Remap never runs mid-ownership), so the
	// mirror lets Stats stay O(1) instead of consulting the OS map per
	// hugepage.
	intact bool

	prev, next *hpTracker
	list       *trackerList
}

// freePages returns pages available for allocation (mapped or refaultable).
func (t *hpTracker) freePages() int { return mem.PagesPerHugePage - t.usedCount }

type trackerList struct {
	head, tail *hpTracker
	size       int
}

func (l *trackerList) pushFront(t *hpTracker) {
	if t.list != nil {
		panic("pageheap: tracker already listed")
	}
	t.list = l
	t.next = l.head
	if l.head != nil {
		l.head.prev = t
	} else {
		l.tail = t
	}
	l.head = t
	l.size++
}

func (l *trackerList) remove(t *hpTracker) {
	if t.list != l {
		panic("pageheap: tracker not in this list")
	}
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		l.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		l.tail = t.prev
	}
	t.prev, t.next, t.list = nil, nil, nil
	l.size--
}

// fillerChunks sub-orders trackers with equal longest-free-range by
// allocation density; chunk 0 is reserved for donated hugepages.
const fillerChunks = 8

// Filler packs sub-hugepage span allocations onto hugepages, always
// preferring the most-allocated hugepage that can fit the request so that
// lightly-used hugepages drain and become releasable (§4.4).
type Filler struct {
	os *mem.OS
	// lists[lfr][chunk]: trackers whose longest free run is lfr.
	lists [mem.PagesPerHugePage + 1][fillerChunks + 1]trackerList
	// chunkMask[lfr] has bit c set iff lists[lfr][c] is non-empty, and
	// rowMask has bit lfr set iff any chunk of row lfr is non-empty, so
	// Alloc finds the tightest adequate free run with a handful of bit
	// scans instead of probing every (lfr, chunk) list head.
	chunkMask [mem.PagesPerHugePage + 1]uint16
	rowMask   [(mem.PagesPerHugePage + 64) / 64]uint64
	byID      map[mem.HugePageID]*hpTracker
	// onEmpty is called when a hugepage becomes completely free and
	// intact; ownership passes back to the caller (the HugeCache).
	onEmpty func(mem.HugePageID)

	usedPages     int64
	releasedTotal int64 // cumulative pages subreleased
	refaults      int64
	hugesReturned int64 // whole hugepages handed back via onEmpty
	brokenDrained int64 // broken hugepages fully subreleased on drain
	// releasedPages and usedOnIntactPages are maintained incrementally
	// so Stats never walks the tracker map (the walk dominated fleet
	// profiles); CheckInvariants audits them against recounts.
	releasedPages     int64 // subreleased pages inside tracked hugepages
	usedOnIntactPages int64 // used pages on intact tracked hugepages

	// freeTrackers stashes the structs of dropped trackers for reuse —
	// a pure allocation cache, never part of serialized or audited state.
	freeTrackers []*hpTracker

	tel *telemetry.Sink
	now func() int64
}

// maxFreeTrackers bounds the tracker structs parked for reuse.
const maxFreeTrackers = 64

// newTracker returns a zeroed tracker, recycled when possible.
func (f *Filler) newTracker() *hpTracker {
	if n := len(f.freeTrackers); n > 0 {
		t := f.freeTrackers[n-1]
		f.freeTrackers[n-1] = nil
		f.freeTrackers = f.freeTrackers[:n-1]
		*t = hpTracker{}
		return t
	}
	return &hpTracker{}
}

// recycleTracker parks a dropped (unlinked, unmapped) tracker for reuse.
func (f *Filler) recycleTracker(t *hpTracker) {
	if len(f.freeTrackers) < maxFreeTrackers {
		f.freeTrackers = append(f.freeTrackers, t)
	}
}

// SetTelemetry installs the telemetry sink (nil disables).
func (f *Filler) SetTelemetry(s *telemetry.Sink) { f.tel = s }

// SetClock installs the virtual-time source used to timestamp free
// spans (nil reads as time zero).
func (f *Filler) SetClock(fn func() int64) { f.now = fn }

func (f *Filler) nowNs() int64 {
	if f.now == nil {
		return 0
	}
	return f.now()
}

// NewFiller creates a filler over os. onEmpty receives hugepages that
// became completely free while still intact.
func NewFiller(o *mem.OS, onEmpty func(mem.HugePageID)) *Filler {
	return &Filler{os: o, byID: make(map[mem.HugePageID]*hpTracker), onEmpty: onEmpty}
}

// chunkOf buckets a tracker by allocation density (denser = higher).
func chunkOf(t *hpTracker) int {
	if t.donated {
		return 0
	}
	return 1 + t.usedCount*(fillerChunks-1)/mem.PagesPerHugePage
}

func (f *Filler) insert(t *hpTracker) {
	lfr, chunk := t.longestFree, chunkOf(t)
	f.lists[lfr][chunk].pushFront(t)
	f.chunkMask[lfr] |= 1 << uint(chunk)
	f.rowMask[lfr>>6] |= 1 << uint(lfr&63)
}

func (f *Filler) unlink(t *hpTracker) {
	// longestFree and chunkOf(t) still name the list t sits on: every
	// caller unlinks before mutating the tracker (trackerList.remove
	// panics on a mismatched list if that ever regresses).
	lfr, chunk := t.longestFree, chunkOf(t)
	if t.list != &f.lists[lfr][chunk] {
		panic("pageheap: tracker mutated before unlink")
	}
	t.list.remove(t)
	if f.lists[lfr][chunk].size == 0 {
		f.chunkMask[lfr] &^= 1 << uint(chunk)
		if f.chunkMask[lfr] == 0 {
			f.rowMask[lfr>>6] &^= 1 << uint(lfr&63)
		}
	}
}

// AddHugePage introduces a fresh, fully-free hugepage to the filler.
func (f *Filler) AddHugePage(h mem.HugePageID) {
	if _, ok := f.byID[h]; ok {
		panic(fmt.Sprintf("pageheap: hugepage %#x already in filler", h.Addr()))
	}
	t := f.newTracker()
	t.id, t.longestFree, t.lastFreeNs = h, mem.PagesPerHugePage, f.nowNs()
	t.intact = f.os.IsIntact(h)
	f.byID[h] = t
	f.insert(t)
}

// AddDonated introduces the tail hugepage of a large allocation: its first
// leadingUsed pages belong to that allocation, the rest become filler
// capacity. The donated pages are freed later through Free.
func (f *Filler) AddDonated(h mem.HugePageID, leadingUsed int) {
	if leadingUsed <= 0 || leadingUsed >= mem.PagesPerHugePage {
		panic(fmt.Sprintf("pageheap: AddDonated with %d leading pages", leadingUsed))
	}
	if _, ok := f.byID[h]; ok {
		panic(fmt.Sprintf("pageheap: hugepage %#x already in filler", h.Addr()))
	}
	t := f.newTracker()
	t.id, t.donated, t.lastFreeNs = h, true, f.nowNs()
	t.intact = f.os.IsIntact(h)
	setRange(t.used[:], 0, leadingUsed)
	t.usedCount = leadingUsed
	t.longestFree = t.used.longestFreeRun()
	f.byID[h] = t
	f.insert(t)
	f.usedPages += int64(leadingUsed)
	if t.intact {
		f.usedOnIntactPages += int64(leadingUsed)
	}
}

// Alloc carves n pages out of an existing filler hugepage. ok is false
// when no tracked hugepage has a free run of n pages; the caller then maps
// a new hugepage and calls AddHugePage first.
func (f *Filler) Alloc(n int) (mem.PageID, bool) {
	if n <= 0 || n > mem.PagesPerHugePage {
		panic(fmt.Sprintf("pageheap: filler alloc of %d pages", n))
	}
	// Tightest adequate free run first (densest hugepages), densest chunk
	// first, donated last — found by scanning the occupancy masks rather
	// than probing every list head.
	for wi := n >> 6; wi < len(f.rowMask); wi++ {
		w := f.rowMask[wi]
		if wi == n>>6 {
			w &= ^uint64(0) << uint(n&63)
		}
		if w != 0 {
			lfr := wi<<6 + bits.TrailingZeros64(w)
			chunk := bits.Len16(f.chunkMask[lfr]) - 1
			return f.allocFrom(f.lists[lfr][chunk].head, n), true
		}
	}
	return 0, false
}

func (f *Filler) allocFrom(t *hpTracker, n int) mem.PageID {
	idx := findFreeRun(t.used[:], n)
	if idx < 0 {
		panic("pageheap: tracker listed with stale longest-free-range")
	}
	// Refault any subreleased pages inside the chosen run.
	refault := countRange(t.released[:], idx, n)
	if refault > 0 {
		f.os.Refault(t.id, refault)
		clearRange(t.released[:], idx, n)
		t.releasedCount -= refault
		f.refaults += int64(refault)
		f.releasedPages -= int64(refault)
	}
	f.unlink(t)
	setRange(t.used[:], idx, n)
	t.usedCount += n
	t.longestFree = t.used.longestFreeRun()
	if t.intact {
		f.usedOnIntactPages += int64(n)
	}
	// Once a donated hugepage receives a filler allocation it behaves
	// like a regular one.
	t.donated = false
	f.insert(t)
	f.usedPages += int64(n)
	f.tel.Event(telemetry.EvFillerPack, int64(t.id), int64(n))
	return t.id.FirstPage() + mem.PageID(idx)
}

// Owns reports whether the filler manages the hugepage containing p.
func (f *Filler) Owns(p mem.PageID) bool {
	_, ok := f.byID[p.HugePage()]
	return ok
}

// Free returns n pages starting at p to the filler. When the hugepage
// becomes completely free it leaves the filler: intact hugepages are
// passed to onEmpty, broken ones are fully subreleased to the OS.
func (f *Filler) Free(p mem.PageID, n int) {
	h := p.HugePage()
	t, ok := f.byID[h]
	if !ok {
		panic(fmt.Sprintf("pageheap: free of pages not owned by filler (page %#x)", p.Addr()))
	}
	idx := p.IndexInHugePage()
	if idx+n > mem.PagesPerHugePage {
		panic("pageheap: free range crosses hugepage boundary")
	}
	if countRange(t.used[:], idx, n) != n {
		panic("pageheap: freeing pages that are not allocated")
	}
	f.unlink(t)
	clearRange(t.used[:], idx, n)
	t.usedCount -= n
	t.lastFreeNs = f.nowNs()
	f.usedPages -= int64(n)
	if t.intact {
		f.usedOnIntactPages -= int64(n)
	}
	f.tel.Event(telemetry.EvFillerUnpack, int64(h), int64(n))
	if t.usedCount == 0 {
		delete(f.byID, h)
		if t.releasedCount > 0 {
			// Broken hugepage: subrelease the remainder; the mapping
			// disappears entirely.
			f.os.Subrelease(h, mem.PagesPerHugePage-t.releasedCount)
			f.releasedTotal += int64(mem.PagesPerHugePage - t.releasedCount)
			f.releasedPages -= int64(t.releasedCount)
			f.brokenDrained++
		} else {
			f.hugesReturned++
			f.onEmpty(h)
		}
		f.recycleTracker(t)
		return
	}
	t.longestFree = t.used.longestFreeRun()
	f.insert(t)
}

// ReleasePages subreleases up to target free pages back to the OS,
// starting from the sparsest (most-free, least-allocated) hugepages so
// that dense hugepages keep their TLB benefit. Hugepages whose allocation
// density exceeds maxDensity are never broken (the skip-subrelease
// policy of Maas et al. [49]: breaking a dense hugepage trades a little
// memory for a permanent TLB loss). It returns the number of pages
// actually released.
func (f *Filler) ReleasePages(target int, maxDensity float64) int {
	limit := int(maxDensity * mem.PagesPerHugePage)
	released := 0
	for lfr := mem.PagesPerHugePage; lfr >= 1 && released < target; lfr-- {
		for chunk := 0; chunk <= fillerChunks && released < target; chunk++ {
			for t := f.lists[lfr][chunk].head; t != nil && released < target; {
				next := t.next
				if t.usedCount <= limit {
					released += f.subreleaseFree(t)
				}
				t = next
			}
		}
	}
	return released
}

// subreleaseFree releases every free-and-mapped page of t.
func (f *Filler) subreleaseFree(t *hpTracker) int {
	n := 0
	for i := 0; i < mem.PagesPerHugePage; i++ {
		if !t.used.get(i) && !t.released.get(i) {
			t.released.set(i)
			t.releasedCount++
			n++
		}
	}
	if n > 0 {
		f.os.Subrelease(t.id, n)
		f.releasedTotal += int64(n)
		f.releasedPages += int64(n)
		if t.intact {
			// First subrelease breaks the hugepage; its used pages stop
			// counting toward hugepage coverage.
			t.intact = false
			f.usedOnIntactPages -= int64(t.usedCount)
		}
		f.tel.EventAdd(telemetry.EvSubrelease, int64(n), int64(t.id), int64(n))
	}
	if t.releasedCount == mem.PagesPerHugePage {
		// The whole hugepage was free: the OS has unmapped it; drop the
		// tracker so nothing tries to refault a dead mapping.
		f.unlink(t)
		delete(f.byID, t.id)
		f.releasedPages -= int64(t.releasedCount)
		f.brokenDrained++
		f.recycleTracker(t)
	}
	return n
}

// FillerStats summarizes filler state.
type FillerStats struct {
	// HugePages is the number of hugepages currently tracked.
	HugePages int
	// UsedBytes is memory allocated to spans.
	UsedBytes int64
	// FreeBytes is mapped-but-free memory (external fragmentation held
	// by the filler).
	FreeBytes int64
	// ReleasedBytes is subreleased (unmapped) memory inside tracked
	// hugepages.
	ReleasedBytes int64
	// UsedOnIntact is the portion of UsedBytes living on intact
	// (hugepage-backed) hugepages; the numerator of hugepage coverage.
	UsedOnIntact int64
	// Refaults counts pages re-mapped after subrelease.
	Refaults int64
	// HugesReturned counts intact hugepages drained and handed back.
	HugesReturned int64
	// BrokenDrained counts broken hugepages drained and fully released.
	BrokenDrained int64
	// CumulativeReleased counts pages ever subreleased.
	CumulativeReleased int64
}

// Stats computes current filler statistics in O(1): every field is an
// incrementally-maintained counter (the former per-hugepage walk
// dominated fleet CPU profiles via the per-refill heap stats reads).
func (f *Filler) Stats() FillerStats {
	freePages := int64(len(f.byID))*mem.PagesPerHugePage - f.usedPages - f.releasedPages
	return FillerStats{
		HugePages:          len(f.byID),
		UsedBytes:          f.usedPages * mem.PageSize,
		FreeBytes:          freePages * mem.PageSize,
		ReleasedBytes:      f.releasedPages * mem.PageSize,
		UsedOnIntact:       f.usedOnIntactPages * mem.PageSize,
		Refaults:           f.refaults,
		HugesReturned:      f.hugesReturned,
		BrokenDrained:      f.brokenDrained,
		CumulativeReleased: f.releasedTotal,
	}
}

// CheckInvariants audits the filler: per-tracker counters against bitmap
// recounts, agreement with the OS on subreleased pages, correct placement
// in the longest-free-run/density lists, and the aggregate used-page
// counter.
func (f *Filler) CheckInvariants() []check.Violation {
	var vs []check.Violation
	var usedTotal, releasedTotal, usedOnIntactTotal int64
	for h, t := range f.byID {
		if t.intact != f.os.IsIntact(t.id) {
			vs = append(vs, check.Violationf("pageheap", check.KindStructure,
				"filler hugepage %#x cached intact=%v, OS says %v",
				h.Addr(), t.intact, f.os.IsIntact(t.id)))
		}
		if t.intact {
			usedOnIntactTotal += int64(t.usedCount)
		}
		releasedTotal += int64(t.releasedCount)
		if t.id != h {
			vs = append(vs, check.Violationf("pageheap", check.KindStructure,
				"filler tracker filed under %#x claims hugepage %#x", h.Addr(), t.id.Addr()))
		}
		if got := popcount(t.used[:]); got != t.usedCount {
			vs = append(vs, check.Violationf("pageheap", check.KindAccounting,
				"filler hugepage %#x counts %d used pages, bitmap holds %d",
				h.Addr(), t.usedCount, got))
		}
		if got := popcount(t.released[:]); got != t.releasedCount {
			vs = append(vs, check.Violationf("pageheap", check.KindAccounting,
				"filler hugepage %#x counts %d released pages, bitmap holds %d",
				h.Addr(), t.releasedCount, got))
		}
		if got := t.used.longestFreeRun(); got != t.longestFree {
			vs = append(vs, check.Violationf("pageheap", check.KindStructure,
				"filler hugepage %#x cached longest-free-run %d, bitmap says %d",
				h.Addr(), t.longestFree, got))
		}
		for i := 0; i < mem.PagesPerHugePage; i++ {
			if t.used.get(i) && t.released.get(i) {
				vs = append(vs, check.Violationf("pageheap", check.KindStructure,
					"filler hugepage %#x page %d both used and subreleased", h.Addr(), i))
				break
			}
		}
		if !f.os.IsMapped(h) {
			vs = append(vs, check.Violationf("pageheap", check.KindStructure,
				"filler holds unmapped hugepage %#x", h.Addr()))
		} else if got := f.os.ReleasedPages(h); got != t.releasedCount {
			vs = append(vs, check.Violationf("pageheap", check.KindAccounting,
				"filler hugepage %#x tracks %d subreleased pages, OS says %d",
				h.Addr(), t.releasedCount, got))
		}
		if t.list == nil {
			vs = append(vs, check.Violationf("pageheap", check.KindStructure,
				"filler hugepage %#x is not on any list", h.Addr()))
		} else if t.list != &f.lists[t.longestFree][chunkOf(t)] {
			vs = append(vs, check.Violationf("pageheap", check.KindStructure,
				"filler hugepage %#x listed under wrong longest-free-run/density bucket", h.Addr()))
		}
		usedTotal += int64(t.usedCount)
	}
	listed := 0
	for lfr := 0; lfr <= mem.PagesPerHugePage; lfr++ {
		var wantChunks uint16
		for chunk := 0; chunk <= fillerChunks; chunk++ {
			if f.lists[lfr][chunk].size > 0 {
				wantChunks |= 1 << uint(chunk)
			}
			for t := f.lists[lfr][chunk].head; t != nil; t = t.next {
				listed++
				if f.byID[t.id] != t {
					vs = append(vs, check.Violationf("pageheap", check.KindStructure,
						"filler list holds tracker for %#x unknown to the index", t.id.Addr()))
				}
			}
		}
		if f.chunkMask[lfr] != wantChunks {
			vs = append(vs, check.Violationf("pageheap", check.KindStructure,
				"filler chunk mask for run %d is %#x, lists say %#x",
				lfr, f.chunkMask[lfr], wantChunks))
		}
		if got := f.rowMask[lfr>>6]&(1<<uint(lfr&63)) != 0; got != (wantChunks != 0) {
			vs = append(vs, check.Violationf("pageheap", check.KindStructure,
				"filler row mask bit for run %d is %v, lists say %v",
				lfr, got, wantChunks != 0))
		}
	}
	if listed != len(f.byID) {
		vs = append(vs, check.Violationf("pageheap", check.KindStructure,
			"filler lists hold %d trackers, index holds %d", listed, len(f.byID)))
	}
	if usedTotal != f.usedPages {
		vs = append(vs, check.Violationf("pageheap", check.KindAccounting,
			"filler used-page counter %d disagrees with per-hugepage total %d",
			f.usedPages, usedTotal))
	}
	if releasedTotal != f.releasedPages {
		vs = append(vs, check.Violationf("pageheap", check.KindAccounting,
			"filler released-page counter %d disagrees with per-hugepage total %d",
			f.releasedPages, releasedTotal))
	}
	if usedOnIntactTotal != f.usedOnIntactPages {
		vs = append(vs, check.Violationf("pageheap", check.KindAccounting,
			"filler used-on-intact counter %d disagrees with per-hugepage total %d",
			f.usedOnIntactPages, usedOnIntactTotal))
	}
	return vs
}
