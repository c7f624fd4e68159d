package pageheap

import (
	"fmt"

	"wsmalloc/internal/check"
	"wsmalloc/internal/mem"
)

// regionHugePages is the size of one HugeRegion in hugepages. Allocations
// that slightly exceed a hugepage (e.g. 2.1 MiB) are packed together onto
// these contiguous runs so their slack overlaps instead of wasting a
// mostly-empty trailing hugepage each (§4.4). Regions are kept small so
// a lightly-used region does not itself become the fragmentation story.
const regionHugePages = 4

// regionPages is the region size in TCMalloc pages.
const regionPages = regionHugePages * mem.PagesPerHugePage

// region tracks one contiguous run of hugepages with page-granularity
// occupancy.
type region struct {
	start     mem.HugePageID
	used      [regionPages / 64]uint64 // one bit per page
	usedCount int
}

func (r *region) firstPage() mem.PageID {
	return r.start.FirstPage()
}

// HugeRegion packs allocations of one-to-several hugepages with large
// slack onto shared contiguous hugepage runs. Regions are mapped whole
// and released whole, so they never break hugepages.
type HugeRegion struct {
	os      *mem.OS
	regions []*region
	byHuge  map[mem.HugePageID]*region
	// onRelease receives the hugepages of a drained region; when nil
	// they are released straight to the OS.
	onRelease func(start mem.HugePageID, n int)

	usedPages int64
	allocs    int64
	frees     int64
}

// NewHugeRegion creates an empty region allocator. onRelease, when
// non-nil, receives drained regions' hugepages (typically the HugeCache)
// instead of returning them to the OS.
func NewHugeRegion(o *mem.OS, onRelease func(start mem.HugePageID, n int)) *HugeRegion {
	return &HugeRegion{os: o, byHuge: make(map[mem.HugePageID]*region), onRelease: onRelease}
}

// Alloc places an n-page allocation in a region, creating a new region
// when none has room. n must fit in one region. Mapping a fresh region
// can fail under fault injection; the error propagates to the caller.
func (h *HugeRegion) Alloc(n int) (mem.PageID, error) {
	if n <= 0 || n > regionPages {
		panic(fmt.Sprintf("pageheap: region alloc of %d pages", n))
	}
	var target *region
	idx := -1
	// Densest-region-first keeps sparse regions drainable: the region
	// with the most used pages wins, the first in slice order on a tie.
	// A region too full to hold n pages, or no denser than the current
	// target, cannot change that choice, so only the rest are searched.
	for _, r := range h.regions {
		if regionPages-r.usedCount < n || (target != nil && r.usedCount <= target.usedCount) {
			continue
		}
		if i := findFreeRun(r.used[:], n); i >= 0 {
			target, idx = r, i
		}
	}
	if target == nil {
		start, err := h.os.MapHuge(regionHugePages)
		if err != nil {
			return 0, err
		}
		target = &region{start: start}
		h.regions = append(h.regions, target)
		for i := 0; i < regionHugePages; i++ {
			h.byHuge[start+mem.HugePageID(i)] = target
		}
		idx = 0
	}
	setRange(target.used[:], idx, n)
	target.usedCount += n
	h.usedPages += int64(n)
	h.allocs++
	return target.firstPage() + mem.PageID(idx), nil
}

// Owns reports whether p lies in a live region.
func (h *HugeRegion) Owns(p mem.PageID) bool {
	_, ok := h.byHuge[p.HugePage()]
	return ok
}

// Free releases n pages starting at p. A region whose last allocation is
// freed is unmapped whole.
func (h *HugeRegion) Free(p mem.PageID, n int) {
	r, ok := h.byHuge[p.HugePage()]
	if !ok {
		panic(fmt.Sprintf("pageheap: region free of unowned page %#x", p.Addr()))
	}
	offset := int(p - r.firstPage())
	if offset < 0 || offset+n > regionPages {
		panic("pageheap: region free out of range")
	}
	if countRange(r.used[:], offset, n) != n {
		panic("pageheap: region double free")
	}
	clearRange(r.used[:], offset, n)
	r.usedCount -= n
	h.usedPages -= int64(n)
	h.frees++
	if r.usedCount == 0 {
		h.releaseRegion(r)
	}
}

func (h *HugeRegion) releaseRegion(r *region) {
	for i := 0; i < regionHugePages; i++ {
		delete(h.byHuge, r.start+mem.HugePageID(i))
	}
	if h.onRelease != nil {
		h.onRelease(r.start, regionHugePages)
	} else {
		for i := 0; i < regionHugePages; i++ {
			h.os.ReleaseHuge(r.start + mem.HugePageID(i))
		}
	}
	for i, cand := range h.regions {
		if cand == r {
			h.regions = append(h.regions[:i], h.regions[i+1:]...)
			return
		}
	}
	panic("pageheap: releasing unknown region")
}

// HugeRegionStats summarizes region state.
type HugeRegionStats struct {
	Regions   int
	UsedBytes int64
	FreeBytes int64
	Allocs    int64
	Frees     int64
}

// Stats returns current statistics.
func (h *HugeRegion) Stats() HugeRegionStats {
	return HugeRegionStats{
		Regions:   len(h.regions),
		UsedBytes: h.usedPages * mem.PageSize,
		FreeBytes: int64(len(h.regions))*regionPages*mem.PageSize - h.usedPages*mem.PageSize,
		Allocs:    h.allocs,
		Frees:     h.frees,
	}
}

// CheckInvariants audits the region allocator: per-region used counters
// against bitmap popcounts, the hugepage index, mapped-and-intact status
// (regions never break hugepages), and the aggregate used-page counter.
func (h *HugeRegion) CheckInvariants() []check.Violation {
	var vs []check.Violation
	var usedTotal int64
	for _, r := range h.regions {
		if recount := popcount(r.used[:]); recount != r.usedCount {
			vs = append(vs, check.Violationf("pageheap", check.KindAccounting,
				"region at %#x counts %d used pages, bitmap holds %d",
				r.start.Addr(), r.usedCount, recount))
		}
		usedTotal += int64(r.usedCount)
		for j := 0; j < regionHugePages; j++ {
			hp := r.start + mem.HugePageID(j)
			if h.byHuge[hp] != r {
				vs = append(vs, check.Violationf("pageheap", check.KindStructure,
					"region hugepage %#x missing from or misfiled in index", hp.Addr()))
			}
			if !h.os.IsMapped(hp) {
				vs = append(vs, check.Violationf("pageheap", check.KindStructure,
					"region holds unmapped hugepage %#x", hp.Addr()))
			} else if !h.os.IsIntact(hp) {
				vs = append(vs, check.Violationf("pageheap", check.KindStructure,
					"region hugepage %#x is broken; regions never subrelease", hp.Addr()))
			}
		}
	}
	if usedTotal != h.usedPages {
		vs = append(vs, check.Violationf("pageheap", check.KindAccounting,
			"region used-page counter %d disagrees with per-region total %d",
			h.usedPages, usedTotal))
	}
	if len(h.byHuge) != len(h.regions)*regionHugePages {
		vs = append(vs, check.Violationf("pageheap", check.KindStructure,
			"region index has %d hugepages for %d regions", len(h.byHuge), len(h.regions)))
	}
	return vs
}
