package main

import (
	"fmt"
	"math"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/workload"
)

// deathBucketNs is the driver's lifetime-bucket width. The op stream
// frees objects in the same bucket order the driver does; the fidelity
// check below catches any drift from the driver.
const deathBucketNs = 100 * workload.Microsecond

type opKind uint8

const (
	opMalloc opKind = iota
	opFree
	opTick
)

// op is one call of the replayed stream. obj indexes the stream's
// objects: a malloc defines it, a free releases it.
type op struct {
	kind opKind
	cpu  int32
	size int32
	obj  int32
	now  int64
}

// drawKind names one kind of random draw the driver makes.
type drawKind int

const (
	drawSize drawKind = iota
	drawPreload
	drawLifetime
	drawArrival
	drawThread
	numDrawKinds
)

// opStream is a recorded driver run: the allocator calls in order, and
// how many draws of each kind produced them.
type opStream struct {
	ops     []op
	objects int
	draws   [numDrawKinds]int64
}

// genOps generates, before any timing, the allocator calls the workload
// driver makes for profile p on a machine with numCPUs CPUs under opts:
// the same draws from the same seed, in the same order, applied with the
// driver's defaults. The replay fidelity check compares the result
// against an actual driver run.
func genOps(p workload.Profile, numCPUs int, o workload.Options) opStream {
	if o.DynamicsPeriodNs == 0 {
		o.DynamicsPeriodNs = o.Duration / 4
	}
	if o.TimeWarpCutoffNs == 0 {
		o.TimeWarpCutoffNs = 20 * workload.Millisecond
	}
	if o.TimeWarpGamma == 0 {
		o.TimeWarpGamma = 0.22
	}
	if o.TickEveryNs == 0 {
		o.TickEveryNs = workload.Millisecond
	}
	if o.ThreadUpdateEveryNs == 0 {
		o.ThreadUpdateEveryNs = 2 * workload.Millisecond
	}
	var s opStream
	r := rng.New(o.Seed)
	dyn := p.Threads
	dyn.PeriodNs = o.DynamicsPeriodNs
	cpuSet := min(max(p.CPUSet, 1), numCPUs)
	cpuFor := func(th int) int32 { return int32(th % cpuSet) }
	threads := dyn.Count(r, 0)
	pick := func() int32 {
		s.draws[drawThread]++
		u := r.Float64()
		return cpuFor(int(u * u * float64(threads)))
	}
	malloc := func(size int, cpu int32, now int64) int32 {
		id := int32(s.objects)
		s.objects++
		s.ops = append(s.ops, op{kind: opMalloc, cpu: cpu, size: int32(size), obj: id, now: now})
		return id
	}

	dist := p.PreloadDist
	if dist == nil {
		dist = workload.DefaultPreloadDist()
	}
	for total := int64(0); total < p.PreloadBytes; {
		size := max(int(dist.Sample(r)), 1)
		s.draws[drawPreload]++
		s.draws[drawThread]++
		malloc(size, cpuFor(r.Intn(threads)), 0)
		total += int64(size)
	}

	warp := func(life int64) int64 {
		if life <= o.TimeWarpCutoffNs {
			return max(life, 1)
		}
		c := float64(o.TimeWarpCutoffNs)
		return int64(c * math.Pow(float64(life)/c, o.TimeWarpGamma))
	}
	wheel := map[int64][]int32{}
	var now, curBucket int64
	nextTick, nextThreads := o.TickEveryNs, o.ThreadUpdateEveryNs
	for now < o.Duration {
		s.draws[drawArrival]++
		now += max(int64(p.MeanAllocGapNs/float64(threads)*r.ExpFloat64()), 1)
		for b := curBucket; b <= now/deathBucketNs; b++ {
			for _, id := range wheel[b] {
				s.ops = append(s.ops, op{kind: opFree, cpu: pick(), obj: id, now: now})
			}
			delete(wheel, b)
			curBucket = b
		}
		if now >= nextTick {
			s.ops = append(s.ops, op{kind: opTick, now: now})
			nextTick += o.TickEveryNs
		}
		if now >= nextThreads {
			threads = dyn.Count(r, now)
			nextThreads += o.ThreadUpdateEveryNs
		}
		if now >= o.Duration {
			break
		}
		size := max(int(p.SizeDist.Sample(r)), 1)
		s.draws[drawSize]++
		id := malloc(size, pick(), now)
		s.draws[drawLifetime]++
		life := warp(p.Lifetime.Sample(r, size))
		b := (now + life) / deathBucketNs
		wheel[b] = append(wheel[b], id)
	}
	return s
}

// replayStats is what one replay of an op stream observed.
type replayStats struct {
	wall          time.Duration
	mallocs       int64
	large         int64 // mallocs beyond the largest size class
	frees         int64
	modelMallocNs float64 // summed modelled cost the mallocs returned
	end           core.Stats
	spans         []span // one per call, when traced
}

// Span names of the traced replay, one per call. A small malloc is a
// front-end hit when its modelled cost is exactly the per-CPU hit cost;
// otherwise it went on to the transfer cache and below.
const (
	spanHit       = "percpu.hit"
	spanMiss      = "percpu.miss"
	spanLargeMal  = "pageheap.large_alloc"
	spanFree      = "core.free"
	spanLargeFree = "pageheap.large_free"
	spanTick      = "core.tick"
)

// The per-call span kinds, indexing callSpans.
const (
	callHit = iota
	callMiss
	callLargeAlloc
	callFree
	callLargeFree
	callTick
)

var callSpans = [...]string{
	callHit:        spanHit,
	callMiss:       spanMiss,
	callLargeAlloc: spanLargeMal,
	callFree:       spanFree,
	callLargeFree:  spanLargeFree,
	callTick:       spanTick,
}

// replay drives s into a. With tr nil it runs untimed per call; with a
// tracer it times each call and returns a span per call under parent,
// for the caller to keep or drop.
func replay(s *opStream, a *core.Allocator, lat core.TierLatencyNs, tr *tracer, parent int32) (replayStats, error) {
	var st replayStats
	addrs := make([]uint64, s.objects)
	sizes := make([]int32, s.objects)
	hitCost := lat.Other
	hitCost += lat.CPUCache
	hitCost += lat.Prefetch
	// Which objects are large is decided before timing, so the untraced
	// replay makes no call the driver does not make.
	large := make([]bool, s.objects)
	for _, o := range s.ops {
		if o.kind == opMalloc {
			_, small := a.Table().ClassFor(int(o.size))
			large[o.obj] = !small
		}
	}

	var spans []span
	var ids [len(callSpans)]uint16
	if tr != nil {
		spans = make([]span, 0, len(s.ops))
		for i, n := range callSpans {
			ids[i] = tr.nameID(n)
		}
	}
	t0 := time.Now()
	for i := range s.ops {
		o := &s.ops[i]
		var start int64
		if tr != nil {
			start = tr.now()
		}
		var name uint16
		switch o.kind {
		case opMalloc:
			addr, cost, err := a.TryMalloc(int(o.size), int(o.cpu))
			if err != nil {
				return st, fmt.Errorf("replay: malloc %d: %w", o.size, err)
			}
			addrs[o.obj], sizes[o.obj] = addr, o.size
			st.mallocs++
			st.modelMallocNs += cost
			switch {
			case large[o.obj]:
				st.large++
				name = ids[callLargeAlloc]
			case cost == hitCost:
				name = ids[callHit]
			default:
				name = ids[callMiss]
			}
		case opFree:
			size := int(sizes[o.obj])
			if _, err := a.TryFree(addrs[o.obj], size, int(o.cpu)); err != nil {
				return st, fmt.Errorf("replay: free: %w", err)
			}
			st.frees++
			name = ids[callFree]
			if large[o.obj] {
				name = ids[callLargeFree]
			}
		case opTick:
			a.Tick(o.now)
			name = ids[callTick]
		}
		if tr != nil {
			spans = append(spans, span{parent: parent, name: name, start: start, end: tr.now()})
		}
	}
	st.wall = time.Since(t0)
	st.end = a.Stats()
	st.spans = spans
	return st, nil
}

// fidelityTolerance is the largest relative gap the replay may show
// against an actual driver run on each checked counter.
const fidelityTolerance = 0.02

type fidelityCheck struct {
	name      string
	got, want float64
}

// fidelityChecks pairs a replay's counters with those of the driver run
// it was generated to mirror: malloc count, large-object share, and the
// per-CPU and pageheap counters.
func fidelityChecks(rep replayStats, ref workload.Result) []fidelityCheck {
	rs := ref.Stats
	refLarge := rs.Mallocs - rs.FrontEnd.AllocHits - rs.FrontEnd.AllocMisses
	return []fidelityCheck{
		{"mallocs", float64(rep.mallocs), float64(rs.Mallocs)},
		{"frees", float64(rep.frees), float64(rs.Frees)},
		{"large_share", ratio(float64(rep.large), float64(rep.mallocs)), ratio(float64(refLarge), float64(rs.Mallocs))},
		{"percpu.alloc_hits", float64(rep.end.FrontEnd.AllocHits), float64(rs.FrontEnd.AllocHits)},
		{"percpu.alloc_misses", float64(rep.end.FrontEnd.AllocMisses), float64(rs.FrontEnd.AllocMisses)},
		{"pageheap.allocs", float64(rep.end.Heap.Allocs), float64(rs.Heap.Allocs)},
		{"pageheap.frees", float64(rep.end.Heap.Frees), float64(rs.Heap.Frees)},
	}
}

// checkFidelity fails when any counter of the replay is further than
// fidelityTolerance from the driver run's.
func checkFidelity(rep replayStats, ref workload.Result) error {
	for _, c := range fidelityChecks(rep, ref) {
		if gap := math.Abs(c.got-c.want) / math.Max(math.Abs(c.want), 1e-9); gap > fidelityTolerance {
			return fmt.Errorf("replay fidelity: %s = %g, driver run %g (gap %.1f%% > %.0f%%)",
				c.name, c.got, c.want, gap*100, fidelityTolerance*100)
		}
	}
	return nil
}
