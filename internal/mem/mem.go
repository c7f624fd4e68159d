// Package mem provides the simulated virtual-memory substrate underneath
// the allocator: a 48-bit address space handed out in hugepage-aligned
// regions by a simulated operating system, transparent-hugepage (THP)
// state tracking per 2 MiB region, and a radix-tree pagemap that resolves
// any TCMalloc page to its owning metadata in O(1).
//
// The real TCMalloc obtains zeroed hugepage-aligned memory from the kernel
// with mmap and returns it with madvise(MADV_DONTNEED); breaking a
// hugepage into native 4 KiB pages (subrelease) destroys its TLB benefit.
// This package reproduces exactly that bookkeeping — which hugepages are
// mapped, which are intact, which were broken — without touching real
// memory, because every structural metric in the paper (hugepage coverage,
// released bytes, fragmentation) depends only on the bookkeeping.
package mem

import (
	"fmt"

	"wsmalloc/internal/check"
	"wsmalloc/internal/telemetry"
)

const (
	// PageShift is log2 of the TCMalloc page size. The default TCMalloc
	// page is 8 KiB — two native x86 4 KiB pages.
	PageShift = 13
	// PageSize is the TCMalloc page size in bytes.
	PageSize = 1 << PageShift
	// HugePageShift is log2 of the x86 hugepage size (2 MiB).
	HugePageShift = 21
	// HugePageSize is the hugepage size in bytes.
	HugePageSize = 1 << HugePageShift
	// PagesPerHugePage is the number of TCMalloc pages per hugepage.
	PagesPerHugePage = HugePageSize / PageSize // 256

	// addressBits bounds the simulated virtual address space.
	addressBits = 48
)

// PageID identifies one TCMalloc page (address >> PageShift).
type PageID uint64

// HugePageID identifies one 2 MiB hugepage (address >> HugePageShift).
type HugePageID uint64

// Addr returns the base byte address of the page.
func (p PageID) Addr() uint64 { return uint64(p) << PageShift }

// HugePage returns the hugepage containing p.
func (p PageID) HugePage() HugePageID {
	return HugePageID(p >> (HugePageShift - PageShift))
}

// IndexInHugePage returns p's index within its hugepage, in [0, 256).
func (p PageID) IndexInHugePage() int {
	return int(p) & (PagesPerHugePage - 1)
}

// Addr returns the base byte address of the hugepage.
func (h HugePageID) Addr() uint64 { return uint64(h) << HugePageShift }

// FirstPage returns the first TCMalloc page of the hugepage.
func (h HugePageID) FirstPage() PageID {
	return PageID(h) << (HugePageShift - PageShift)
}

// hugeState tracks the kernel-visible condition of one mapped hugepage.
type hugeState struct {
	// broken is true once any part of the hugepage has been subreleased;
	// the kernel then backs the region with native pages and the TLB
	// benefit is lost until remapped.
	broken bool
	// releasedPages counts TCMalloc pages subreleased back to the OS.
	releasedPages int
}

// OS is the simulated operating system memory interface. It hands out
// hugepage-aligned virtual address space with a bump allocator, tracks
// which hugepages are currently mapped, intact, broken, or fully released,
// and reports the counters from which hugepage coverage (Fig. 17a) is
// computed. OS is not safe for concurrent use; the simulation is
// single-threaded by design for determinism.
type OS struct {
	next   HugePageID
	mapped map[HugePageID]*hugeState

	// mappedBytes is the running total of mapped (non-subreleased)
	// bytes, maintained incrementally so budget checks are O(1); the
	// invariant auditor recomputes it from `mapped` to detect drift.
	mappedBytes int64
	// releasedBytes is the running total of subreleased-but-still-mapped
	// bytes — memory the allocator can Refault back in without asking the
	// OS for a new mapping. The fault-plan budget bounds mappedBytes +
	// releasedBytes (committed bytes): refault has no failure path, so
	// the budget must be reserved when the hugepage is mapped, not when
	// its pages are re-touched.
	releasedBytes int64

	faults *faultState

	mmapCalls      int64
	releaseCalls   int64
	subreleaseOps  int64
	everMappedHuge int64

	tel *telemetry.Sink
}

// SetTelemetry installs the telemetry sink (nil disables).
func (o *OS) SetTelemetry(s *telemetry.Sink) { o.tel = s }

// NewOS returns an OS whose address space starts at 4 GiB (keeping zero
// and low addresses invalid, as on a real system).
func NewOS() *OS {
	return &OS{
		next:   HugePageID(uint64(4<<30) >> HugePageShift),
		mapped: make(map[HugePageID]*hugeState),
	}
}

// MapHuge maps n contiguous, zeroed, hugepage-aligned hugepages and
// returns the first one. It is the analogue of mmap(MAP_ANONYMOUS) with
// THP enabled: each returned hugepage starts intact. Allocation failure
// is a first-class outcome, not a panic: MapHuge returns an error
// wrapping ErrNoMemory when the address space is exhausted, when an
// installed FaultPlan injects an mmap failure, or when the mapping would
// exceed the plan's mapped-byte budget.
func (o *OS) MapHuge(n int) (HugePageID, error) {
	if n <= 0 {
		panic("mem: MapHuge with non-positive count")
	}
	start := o.next
	if uint64(start.Addr())+uint64(n)<<HugePageShift >= 1<<addressBits {
		return 0, fmt.Errorf("simulated %d-bit address space exhausted at %#x: %w",
			addressBits, start.Addr(), ErrNoMemory)
	}
	if err := o.checkMapFaults(n); err != nil {
		return 0, err
	}
	o.next += HugePageID(n)
	for i := 0; i < n; i++ {
		o.mapped[start+HugePageID(i)] = &hugeState{}
	}
	o.mappedBytes += int64(n) * HugePageSize
	o.mmapCalls++
	o.everMappedHuge += int64(n)
	o.tel.Event(telemetry.EvMmap, int64(n), int64(start))
	return start, nil
}

// ReleaseHuge returns an entire hugepage to the OS (munmap/MADV_DONTNEED
// of the full 2 MiB region). The hugepage must be mapped. Whole-hugepage
// release is the "good" release path: it frees memory without creating a
// broken region.
func (o *OS) ReleaseHuge(h HugePageID) {
	st, ok := o.mapped[h]
	if !ok {
		panic(fmt.Sprintf("mem: ReleaseHuge of unmapped hugepage %#x", h.Addr()))
	}
	o.mappedBytes -= HugePageSize - int64(st.releasedPages)*PageSize
	o.releasedBytes -= int64(st.releasedPages) * PageSize
	delete(o.mapped, h)
	o.releaseCalls++
	o.tel.Event(telemetry.EvMunmap, 1, int64(h))
}

// Subrelease returns `pages` TCMalloc pages of hugepage h to the OS
// without unmapping the rest. The first subrelease breaks the hugepage:
// the kernel splits it into native pages and the region stops counting as
// hugepage-backed. Subreleasing all remaining pages releases the mapping
// entirely.
func (o *OS) Subrelease(h HugePageID, pages int) {
	st, ok := o.mapped[h]
	if !ok {
		panic(fmt.Sprintf("mem: Subrelease of unmapped hugepage %#x", h.Addr()))
	}
	if pages <= 0 || st.releasedPages+pages > PagesPerHugePage {
		panic(fmt.Sprintf("mem: Subrelease of %d pages (already released %d)", pages, st.releasedPages))
	}
	st.broken = true
	st.releasedPages += pages
	o.mappedBytes -= int64(pages) * PageSize
	o.releasedBytes += int64(pages) * PageSize
	o.subreleaseOps++
	if st.releasedPages == PagesPerHugePage {
		o.releasedBytes -= HugePageSize
		delete(o.mapped, h)
		o.releaseCalls++
	}
}

// Refault maps `pages` previously subreleased TCMalloc pages of h back in,
// modeling the kernel re-faulting native pages on first touch after
// MADV_DONTNEED. The hugepage remains broken — only khugepaged collapse
// (Remap) restores the TLB benefit.
func (o *OS) Refault(h HugePageID, pages int) {
	st, ok := o.mapped[h]
	if !ok {
		panic(fmt.Sprintf("mem: Refault of unmapped hugepage %#x", h.Addr()))
	}
	if pages <= 0 || pages > st.releasedPages {
		panic(fmt.Sprintf("mem: Refault of %d pages (only %d released)", pages, st.releasedPages))
	}
	st.releasedPages -= pages
	o.mappedBytes += int64(pages) * PageSize
	o.releasedBytes -= int64(pages) * PageSize
}

// Remap restores a previously broken hugepage to intact state, modeling
// khugepaged collapsing the region after the allocator rebinds it. The
// hugepage must still be mapped.
func (o *OS) Remap(h HugePageID) {
	st, ok := o.mapped[h]
	if !ok {
		panic(fmt.Sprintf("mem: Remap of unmapped hugepage %#x", h.Addr()))
	}
	o.mappedBytes += int64(st.releasedPages) * PageSize
	o.releasedBytes -= int64(st.releasedPages) * PageSize
	st.broken = false
	st.releasedPages = 0
}

// IsMapped reports whether h is currently mapped.
func (o *OS) IsMapped(h HugePageID) bool {
	_, ok := o.mapped[h]
	return ok
}

// Holds reports whether every page of the n-page run starting at p lies
// in a currently mapped hugepage: a live span always does, so decoders
// use it to refuse one that no allocation could have produced.
func (o *OS) Holds(p PageID, n int) bool {
	if n <= 0 || !InAddressSpace(p, n) {
		return false
	}
	first, last := p.HugePage(), (p + PageID(n-1)).HugePage()
	if uint64(last-first) >= uint64(len(o.mapped)) {
		return false
	}
	for h := first; h <= last; h++ {
		if _, ok := o.mapped[h]; !ok {
			return false
		}
	}
	return true
}

// IsIntact reports whether h is mapped and still hugepage-backed.
func (o *OS) IsIntact(h HugePageID) bool {
	st, ok := o.mapped[h]
	return ok && !st.broken
}

// ReleasedPages returns the number of subreleased pages of h (0 if intact
// or unmapped).
func (o *OS) ReleasedPages(h HugePageID) int {
	if st, ok := o.mapped[h]; ok {
		return st.releasedPages
	}
	return 0
}

// MappedBytes returns the total bytes currently mapped (excluding
// subreleased pages). It is O(1): the counter is maintained
// incrementally and audited against a full recount by CheckInvariants.
func (o *OS) MappedBytes() int64 { return o.mappedBytes }

// IntactHugeBytes returns the bytes mapped in intact (hugepage-backed)
// regions.
func (o *OS) IntactHugeBytes() int64 {
	var total int64
	for _, st := range o.mapped {
		if !st.broken {
			total += HugePageSize
		}
	}
	return total
}

// BrokenBytes returns the still-mapped bytes living in broken
// (native-page-backed) regions.
func (o *OS) BrokenBytes() int64 {
	var total int64
	for _, st := range o.mapped {
		if st.broken {
			total += HugePageSize - int64(st.releasedPages)*PageSize
		}
	}
	return total
}

// MmapCalls returns the number of MapHuge invocations.
func (o *OS) MmapCalls() int64 { return o.mmapCalls }

// ReleaseCalls returns the number of full-region releases.
func (o *OS) ReleaseCalls() int64 { return o.releaseCalls }

// SubreleaseOps returns the number of Subrelease invocations.
func (o *OS) SubreleaseOps() int64 { return o.subreleaseOps }

// EverMappedHugePages returns the cumulative number of hugepages mapped.
func (o *OS) EverMappedHugePages() int64 { return o.everMappedHuge }

// CheckInvariants audits the OS bookkeeping: per-hugepage state sanity,
// the incremental mapped-byte counter against a full recount, and the
// fault plan's budget (a mapping that slipped past the budget is exactly
// the unchecked growth this auditor exists to catch).
func (o *OS) CheckInvariants() []check.Violation {
	var vs []check.Violation
	var recount, recountReleased int64
	for h, st := range o.mapped {
		if st.releasedPages < 0 || st.releasedPages > PagesPerHugePage {
			vs = append(vs, check.Violationf("mem", check.KindStructure,
				"hugepage %#x has %d released pages outside [0,%d]",
				h.Addr(), st.releasedPages, PagesPerHugePage))
		}
		if st.releasedPages > 0 && !st.broken {
			vs = append(vs, check.Violationf("mem", check.KindStructure,
				"hugepage %#x has %d subreleased pages but is not marked broken",
				h.Addr(), st.releasedPages))
		}
		recount += HugePageSize - int64(st.releasedPages)*PageSize
		recountReleased += int64(st.releasedPages) * PageSize
	}
	if recount != o.mappedBytes {
		vs = append(vs, check.Violationf("mem", check.KindAccounting,
			"mapped-byte counter %d disagrees with recount %d", o.mappedBytes, recount))
	}
	if recountReleased != o.releasedBytes {
		vs = append(vs, check.Violationf("mem", check.KindAccounting,
			"released-byte counter %d disagrees with recount %d", o.releasedBytes, recountReleased))
	}
	if o.faults != nil {
		if budget := o.faults.plan.MappedBytesBudget; budget > 0 && o.mappedBytes+o.releasedBytes > budget {
			vs = append(vs, check.Violationf("mem", check.KindAccounting,
				"committed bytes %d (%d mapped + %d refaultable) exceed fault-plan budget %d",
				o.mappedBytes+o.releasedBytes, o.mappedBytes, o.releasedBytes, budget))
		}
	}
	return vs
}
