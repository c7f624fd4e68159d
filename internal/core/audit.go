package core

import (
	"fmt"

	"wsmalloc/internal/check"
	"wsmalloc/internal/mem"
)

// Shadow exposes the heap-integrity shadow heap (nil when disabled).
func (a *Allocator) Shadow() *check.ShadowHeap { return a.shadow }

// CorruptSpanAccountingForTest skews the given size class's central
// free-list live-object counter. Corruption-injection hook for the
// sanitizer self-test only: the next CheckInvariants must report the
// drift.
func (a *Allocator) CorruptSpanAccountingForTest(class int, delta int64) {
	a.cfls[class].CorruptLiveObjectsForTest(delta)
}

// CorruptFrontUsedForTest skews a per-CPU cache's used-byte counter.
// Corruption-injection hook for the sanitizer self-test only.
func (a *Allocator) CorruptFrontUsedForTest(vcpu int, delta int64) {
	a.front.CorruptUsedForTest(vcpu, delta)
}

// OverstuffTransferForTest forces objects into a transfer cache beyond
// its byte bound. Corruption-injection hook for the sanitizer self-test
// only.
func (a *Allocator) OverstuffTransferForTest(class int, addrs []uint64) {
	a.transfer.OverstuffLegacyForTest(class, addrs)
}

// CheckInvariants runs every tier's structural auditor plus the
// allocator-wide byte-conservation checks, and appends any violations the
// shadow heap has accumulated. It is read-only and safe to call at any
// point between operations; the workload driver runs it every N ticks
// when auditing is enabled.
//
// The conservation checks tie the tiers together so that a byte lost or
// double-counted anywhere surfaces here even if every tier is internally
// consistent:
//
//  1. Pageheap used bytes == central-free-list span bytes + live large
//     spans (every used page belongs to exactly one span).
//  2. Objects drawn from the central free lists == live small objects +
//     objects cached in the front-end and transfer tiers (an object is
//     in exactly one place).
//  3. With the full-coverage shadow heap on, its live-record count must
//     equal the allocator's live-object count.
func (a *Allocator) CheckInvariants() []check.Violation {
	vs := append([]check.Violation(nil), a.front.CheckInvariants()...)
	vs = append(vs, a.transfer.CheckInvariants()...)

	var spanBytes, cflLiveBytes int64
	for _, l := range a.cfls {
		vs = append(vs, l.CheckInvariants()...)
		ls := l.Stats()
		c := l.Class()
		spanBytes += int64(ls.Spans) * int64(c.Pages) * mem.PageSize
		cflLiveBytes += ls.LiveObjects * int64(c.Size)
	}
	vs = append(vs, a.heap.CheckInvariants()...)

	hs := a.heap.Stats()
	if got := spanBytes + a.t.largeLiveRounded; got != hs.UsedBytes {
		vs = append(vs, check.Violationf("core", check.KindConservation,
			"CFL spans (%d B) + live large spans (%d B) = %d B, but pageheap has %d B in use",
			spanBytes, a.t.largeLiveRounded, got, hs.UsedBytes))
	}

	smallLive := a.t.liveRounded - a.t.largeLiveRounded
	cached := a.front.Stats().CachedBytes + a.transfer.Stats().CachedBytes
	if smallLive+cached != cflLiveBytes {
		vs = append(vs, check.Violationf("core", check.KindConservation,
			"live small objects (%d B) + cached objects (%d B) = %d B, but the CFLs have %d B outstanding",
			smallLive, cached, smallLive+cached, cflLiveBytes))
	}

	if a.shadow != nil {
		if a.shadow.Full() && a.shadow.LiveTracked() != a.t.liveObjects {
			vs = append(vs, check.Violationf("core", check.KindConservation,
				"shadow heap tracks %d live objects, allocator counts %d",
				a.shadow.LiveTracked(), a.t.liveObjects))
		}
		vs = append(vs, a.shadow.Violations()...)
	}
	return vs
}

// CheckRestored audits an allocator just overlaid from a checkpoint. A
// blob that decodes cleanly but describes a heap failing CheckInvariants
// is as unusable as one that does not decode: resuming it would carry
// the corruption into the run, so resume paths refuse it.
func (a *Allocator) CheckRestored() error {
	if vs := a.CheckInvariants(); len(vs) > 0 {
		return fmt.Errorf("core: restored state fails %d invariant checks, first: %s", len(vs), vs[0])
	}
	return nil
}
