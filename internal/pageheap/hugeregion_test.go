package pageheap

import (
	"bytes"
	"fmt"
	"testing"

	"wsmalloc/internal/mem"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/snapshot"
)

// refRegion is the HugeRegion placement rule written the obvious way: it
// tests every page of every region one at a time and keeps the densest
// region that fits, the first in slice order on a tie, at the first
// fitting page. Regions are mapped from the reference's own OS, which
// hands out the same addresses as the HugeRegion's for the same calls.
type refRegion struct {
	os      *mem.OS
	regions []*refArea
}

type refArea struct {
	start mem.HugePageID
	used  [regionPages]bool
	count int
}

func (r *refRegion) alloc(n int) mem.PageID {
	var target *refArea
	idx := -1
	for _, a := range r.regions {
		fit, run, start := -1, 0, 0
		for i := 0; i < regionPages; i++ {
			if a.used[i] {
				run, start = 0, i+1
				continue
			}
			if run++; run == n {
				fit = start
				break
			}
		}
		if fit >= 0 && (target == nil || a.count > target.count) {
			target, idx = a, fit
		}
	}
	if target == nil {
		target = &refArea{start: mustMap(r.os, regionHugePages)}
		r.regions = append(r.regions, target)
		idx = 0
	}
	for i := idx; i < idx+n; i++ {
		target.used[i] = true
	}
	target.count += n
	return target.start.FirstPage() + mem.PageID(idx)
}

func (r *refRegion) free(p mem.PageID, n int) {
	for k, a := range r.regions {
		off := int(p - a.start.FirstPage())
		if p < a.start.FirstPage() || off >= regionPages {
			continue
		}
		for i := off; i < off+n; i++ {
			if !a.used[i] {
				panic("refRegion: double free")
			}
			a.used[i] = false
		}
		if a.count -= n; a.count == 0 {
			r.regions = append(r.regions[:k], r.regions[k+1:]...)
			for i := 0; i < regionHugePages; i++ {
				r.os.ReleaseHuge(a.start + mem.HugePageID(i))
			}
		}
		return
	}
	panic("refRegion: free of unowned page")
}

// regionLockstep drives a HugeRegion and a refRegion with the same
// operations and fails at the first op whose outcome differs.
type regionLockstep struct {
	t    testing.TB
	o    *mem.OS
	h    *HugeRegion
	ref  refRegion
	live []regionSpan
	op   int
}

type regionSpan struct {
	p mem.PageID
	n int
}

func newRegionLockstep(t testing.TB) *regionLockstep {
	o := mem.NewOS()
	return &regionLockstep{t: t, o: o, h: NewHugeRegion(o, nil), ref: refRegion{os: mem.NewOS()}}
}

func (l *regionLockstep) alloc(n int) {
	l.op++
	got, want := regionAlloc(l.h, n), l.ref.alloc(n)
	if got != want {
		l.t.Fatalf("op %d: alloc(%d) placed at page %#x, reference at %#x", l.op, n, got, want)
	}
	l.live = append(l.live, regionSpan{got, n})
	l.compare("alloc")
}

func (l *regionLockstep) free(j int) {
	l.op++
	s := l.live[j]
	l.live[j] = l.live[len(l.live)-1]
	l.live = l.live[:len(l.live)-1]
	l.h.Free(s.p, s.n)
	l.ref.free(s.p, s.n)
	l.compare("free")
}

func (l *regionLockstep) compare(what string) {
	if len(l.h.regions) != len(l.ref.regions) {
		l.t.Fatalf("op %d (%s): %d regions, reference %d", l.op, what, len(l.h.regions), len(l.ref.regions))
	}
}

// roundTrip replaces the HugeRegion with one decoded from its snapshot and
// requires the decoded state to encode to the same bytes.
func (l *regionLockstep) roundTrip() {
	encode := func(h *HugeRegion) []byte {
		e := snapshot.NewEncoder()
		h.EncodeState(e)
		return e.Finish()
	}
	blob := encode(l.h)
	d, err := snapshot.NewDecoder(blob)
	if err != nil {
		l.t.Fatalf("op %d: %v", l.op, err)
	}
	h := NewHugeRegion(l.o, nil)
	h.DecodeState(d)
	if d.Err() != nil {
		l.t.Fatalf("op %d: decode: %v", l.op, d.Err())
	}
	if !bytes.Equal(encode(h), blob) {
		l.t.Fatalf("op %d: decoded region state re-encodes differently", l.op)
	}
	l.h = h
}

// finish frees every live span and requires both sides to end empty with
// a clean audit.
func (l *regionLockstep) finish() {
	for len(l.live) > 0 {
		l.free(len(l.live) - 1)
	}
	if vs := l.h.CheckInvariants(); len(vs) > 0 {
		l.t.Fatalf("after drain: %v", vs)
	}
	if st := l.h.Stats(); st.Regions != 0 || st.UsedBytes != 0 || l.o.MappedBytes() != 0 {
		l.t.Fatalf("after drain: %+v, %d bytes mapped", st, l.o.MappedBytes())
	}
}

// TestRegionMatchesReference runs seeded alloc/free sequences of 1-1024
// pages, weighted towards the 257-448-page allocations the page heap
// routes to regions, through HugeRegion and refRegion in lockstep, with a
// snapshot round-trip halfway through each sequence.
func TestRegionMatchesReference(t *testing.T) {
	const seeds, opsPerSeed, maxLive = 8, 125_000, 16
	for seed := uint64(1); seed <= seeds; seed++ {
		l := newRegionLockstep(t)
		r := rng.New(seed)
		for i := 0; i < opsPerSeed; i++ {
			if i == opsPerSeed/2 {
				l.roundTrip()
			}
			if len(l.live) > 0 && (len(l.live) == maxLive || r.Bool(0.5)) {
				l.free(r.Intn(len(l.live)))
				continue
			}
			var n int
			switch r.Intn(3) {
			case 0:
				n = 1 + r.Intn(regionPages)
			case 1:
				n = 257 + r.Intn(192)
			default:
				n = 1 + r.Intn(64)
			}
			l.alloc(n)
		}
		l.finish()
	}
}

// FuzzRegionMatchesReference reads ops as byte pairs: a free of a live
// span when the first byte's low two bits are zero, a snapshot round-trip
// on 0xff, otherwise an alloc of 1-1024 pages.
func FuzzRegionMatchesReference(f *testing.F) {
	f.Add([]byte{1, 13, 5, 12, 9, 200, 0, 0, 0xff, 0, 7, 3})
	f.Add(bytes.Repeat([]byte{0x41, 0x0d, 0x45, 0x20, 0x00, 0x01}, 20))
	f.Fuzz(func(t *testing.T, ops []byte) {
		l := newRegionLockstep(t)
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := ops[i], ops[i+1]
			switch {
			case a == 0xff:
				l.roundTrip()
			case a&3 == 0 && len(l.live) > 0:
				l.free(int(b) % len(l.live))
			default:
				l.alloc(1 + (int(a>>2)<<8|int(b))%regionPages)
			}
		}
		l.finish()
	})
}

// BenchmarkHugeRegionAlloc times one 269-page (2.1 MiB) alloc/free pair
// against n live, partly filled regions. Each region is filled whole and
// then given one free hole of 269-468 pages plus a few one-page holes, at
// a per-region offset, so regions differ in density and in where their
// first fit lies. The pair leaves the regions as it found them.
func BenchmarkHugeRegionAlloc(b *testing.B) {
	for _, n := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("regions=%d", n), func(b *testing.B) {
			h := NewHugeRegion(mem.NewOS(), nil)
			for i := 0; i < n; i++ {
				p := regionAlloc(h, regionPages)
				hole := 269 + (i*53)%200
				off := (i * 97) % (regionPages - hole - 16)
				h.Free(p+mem.PageID(off), hole)
				for j := 0; j < 4; j++ {
					h.Free(p+mem.PageID(off+hole+2+3*j), 1)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Free(regionAlloc(h, 269), 269)
			}
		})
	}
}
