// Package pageheap implements TCMalloc's hugepage-aware back-end (§2.1
// item 4, §4.4): the HugeFiller that packs sub-hugepage spans onto 2 MiB
// hugepages, the HugeRegion that packs allocations slightly exceeding a
// hugepage onto contiguous hugepage runs, the HugeCache that retains free
// hugepages for large allocations, and the gradual release/subrelease
// policy that trades idle memory against hugepage coverage.
//
// The package also implements the paper's lifetime-aware hugepage filler:
// spans whose capacity marks them short-lived are packed onto a dedicated
// hugepage set so those hugepages drain completely and can be released
// whole, preserving hugepage coverage (Table 2, Fig. 17).
package pageheap

import "math/bits"

// bitmap256 tracks the 256 TCMalloc pages of one hugepage.
type bitmap256 [4]uint64

func (b *bitmap256) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b *bitmap256) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b *bitmap256) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// The bit-range helpers below work over any word slice: bitmap256 (one
// hugepage) and region (one HugeRegion) both keep their occupancy as
// little-endian bit words.

// rangeMask returns the bits of word wi covered by [start, start+n).
func rangeMask(wi, start, n int) uint64 {
	lo, hi := wi<<6, wi<<6+64
	if start > lo {
		lo = start
	}
	if start+n < hi {
		hi = start + n
	}
	if lo >= hi {
		return 0
	}
	m := ^uint64(0) << uint(lo&63)
	if hi&63 != 0 {
		m &= (1 << uint(hi&63)) - 1
	}
	return m
}

// setRange sets bits [start, start+n) of words.
func setRange(words []uint64, start, n int) {
	for wi := start >> 6; wi <= (start+n-1)>>6; wi++ {
		words[wi] |= rangeMask(wi, start, n)
	}
}

// clearRange clears bits [start, start+n) of words.
func clearRange(words []uint64, start, n int) {
	for wi := start >> 6; wi <= (start+n-1)>>6; wi++ {
		words[wi] &^= rangeMask(wi, start, n)
	}
}

// countRange returns the set bits of words within [start, start+n).
func countRange(words []uint64, start, n int) int {
	c := 0
	for wi := start >> 6; wi <= (start+n-1)>>6; wi++ {
		c += bits.OnesCount64(words[wi] & rangeMask(wi, start, n))
	}
	return c
}

// popcount returns the number of set bits in words.
func popcount(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// findFreeRun returns the index of the first run of n clear bits in
// words, or -1. It walks set bits (the gaps between them are the free
// runs) instead of testing every bit, and jumps a whole run of set bits
// at once, so its cost follows the number of runs, not of bits.
func findFreeRun(words []uint64, n int) int {
	free := 0 // first index of the current clear run
	for wi, w := range words {
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w) // next set bit
			if i-free >= n {
				return free
			}
			// Skip the run of set bits at i, up to the end of this word.
			k := uint(i - base)
			ones := bits.TrailingZeros64(^(w >> k))
			w &^= 1<<(k+uint(ones)) - 1 // a shift of 64 clears the whole word
			free = i + ones
		}
	}
	if len(words)<<6-free >= n {
		return free
	}
	return -1
}

// longestFreeRun returns the length of the longest run of clear bits.
// Per word: zeros at the bottom extend the carried run, interior zero
// runs are measured with the shift-and trick, zeros at the top seed the
// next carry. Interior runs include the boundary segments, which is
// safe under max: those segments are genuine (shorter) zero runs.
func (b *bitmap256) longestFreeRun() int {
	best, run := 0, 0
	for wi := 0; wi < 4; wi++ {
		w := b[wi]
		if w == 0 {
			run += 64
			continue
		}
		if r := run + bits.TrailingZeros64(w); r > best {
			best = r
		}
		l := 0
		for z := ^w; z != 0; z &= z << 1 {
			l++
		}
		if l > best {
			best = l
		}
		run = bits.LeadingZeros64(w)
	}
	if run > best {
		best = run
	}
	return best
}
