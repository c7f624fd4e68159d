package mem

import "math/bits"

// PageMap is a three-level radix tree from PageID to a value of type T,
// mirroring TCMalloc's PageMap that resolves any address to its owning
// span during free(). With a 48-bit address space and 13-bit pages there
// are 35 bits of page number, split 12/11/12 across the levels; interior
// nodes are allocated lazily so sparse heaps stay small.
//
// The zero value is not usable; call NewPageMap.
type PageMap[T any] struct {
	root  []*pmMid[T]
	count int64
}

const (
	pmRootBits = 12
	pmMidBits  = 11
	pmLeafBits = 12

	pmRootSize = 1 << pmRootBits
	pmMidSize  = 1 << pmMidBits
	pmLeafSize = 1 << pmLeafBits

	pmPageBits = pmRootBits + pmMidBits + pmLeafBits // 35
)

type pmMid[T any] struct {
	leaves []*pmLeaf[T]
}

type pmLeaf[T any] struct {
	values [pmLeafSize]T
	set    [pmLeafSize / 64]uint64
}

// NewPageMap returns an empty pagemap.
func NewPageMap[T any]() *PageMap[T] {
	return &PageMap[T]{root: make([]*pmMid[T], pmRootSize)}
}

// InAddressSpace reports whether the n pages starting at p all lie in
// the simulated address space the pagemap covers. Decoders use it to
// refuse a span that no pagemap could hold.
func InAddressSpace(p PageID, n int) bool {
	const limit = uint64(1) << pmPageBits
	return n >= 0 && uint64(p) < limit && uint64(n) <= limit-uint64(p)
}

func pmIndices(p PageID) (int, int, int) {
	if uint64(p) >= 1<<pmPageBits {
		panic("mem: page id outside simulated address space")
	}
	leaf := int(p) & (pmLeafSize - 1)
	mid := int(p>>pmLeafBits) & (pmMidSize - 1)
	root := int(p >> (pmLeafBits + pmMidBits))
	return root, mid, leaf
}

// leafFor returns the leaf holding root/mid slot (ri, mi), allocating the
// path to it when absent.
func (m *PageMap[T]) leafFor(ri, mi int) *pmLeaf[T] {
	mid := m.root[ri]
	if mid == nil {
		mid = &pmMid[T]{leaves: make([]*pmLeaf[T], pmMidSize)}
		m.root[ri] = mid
	}
	leaf := mid.leaves[mi]
	if leaf == nil {
		leaf = &pmLeaf[T]{}
		mid.leaves[mi] = leaf
	}
	return leaf
}

// Set records v as the value for page p.
func (m *PageMap[T]) Set(p PageID, v T) {
	ri, mi, li := pmIndices(p)
	leaf := m.leafFor(ri, mi)
	word, bit := li/64, uint(li%64)
	if leaf.set[word]&(1<<bit) == 0 {
		leaf.set[word] |= 1 << bit
		m.count++
	}
	leaf.values[li] = v
}

// leafSpan returns the bits of set word wi that lie within leaf slots
// [lo, hi).
func leafSpan(wi, lo, hi int) uint64 {
	m := ^uint64(0)
	if lo > wi*64 {
		m <<= uint(lo - wi*64)
	}
	if hi < wi*64+64 {
		m &= 1<<uint(hi-wi*64) - 1
	}
	return m
}

// SetRange records v for n consecutive pages starting at p. It works one
// leaf at a time: one root/mid lookup, a value fill, and a word-mask
// update of the set bits whose popcount delta keeps Len exact.
func (m *PageMap[T]) SetRange(p PageID, n int, v T) {
	if n <= 0 {
		return
	}
	pmIndices(p + PageID(n-1)) // panics on a range past the address space before any page changes
	for n > 0 {
		ri, mi, lo := pmIndices(p)
		hi := min(lo+n, pmLeafSize)
		leaf := m.leafFor(ri, mi)
		for i := lo; i < hi; i++ {
			leaf.values[i] = v
		}
		for wi := lo / 64; wi <= (hi-1)/64; wi++ {
			mask := leafSpan(wi, lo, hi)
			m.count += int64(bits.OnesCount64(mask &^ leaf.set[wi]))
			leaf.set[wi] |= mask
		}
		p += PageID(hi - lo)
		n -= hi - lo
	}
}

// Get returns the value for page p and whether one is set.
func (m *PageMap[T]) Get(p PageID) (T, bool) {
	var zero T
	ri, mi, li := pmIndices(p)
	mid := m.root[ri]
	if mid == nil {
		return zero, false
	}
	leaf := mid.leaves[mi]
	if leaf == nil {
		return zero, false
	}
	word, bit := li/64, uint(li%64)
	if leaf.set[word]&(1<<bit) == 0 {
		return zero, false
	}
	return leaf.values[li], true
}

// Clear removes the mapping for page p if present.
func (m *PageMap[T]) Clear(p PageID) {
	ri, mi, li := pmIndices(p)
	mid := m.root[ri]
	if mid == nil {
		return
	}
	leaf := mid.leaves[mi]
	if leaf == nil {
		return
	}
	word, bit := li/64, uint(li%64)
	if leaf.set[word]&(1<<bit) != 0 {
		leaf.set[word] &^= 1 << bit
		var zero T
		leaf.values[li] = zero
		m.count--
	}
}

// ClearRange removes mappings for n consecutive pages starting at p,
// one leaf at a time; pages that are not mapped are skipped.
func (m *PageMap[T]) ClearRange(p PageID, n int) {
	if n <= 0 {
		return
	}
	pmIndices(p + PageID(n-1)) // panics on a range past the address space before any page changes
	for n > 0 {
		ri, mi, lo := pmIndices(p)
		hi := min(lo+n, pmLeafSize)
		p += PageID(hi - lo)
		n -= hi - lo
		mid := m.root[ri]
		if mid == nil || mid.leaves[mi] == nil {
			continue
		}
		leaf := mid.leaves[mi]
		for wi := lo / 64; wi <= (hi-1)/64; wi++ {
			mask := leafSpan(wi, lo, hi)
			m.count -= int64(bits.OnesCount64(mask & leaf.set[wi]))
			leaf.set[wi] &^= mask
		}
		clear(leaf.values[lo:hi]) // unmapped slots already hold the zero value
	}
}

// Len returns the number of mapped pages.
func (m *PageMap[T]) Len() int64 { return m.count }
