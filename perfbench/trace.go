package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public entry point. Times are ns since the tracer's epoch.
type span struct {
	parent     int32 // index of the causing span, -1 for a root
	name       uint16
	start, end int64
}

// tracer keeps every span of one workload run in memory; they are written
// out once, when the run ends. It is safe for concurrent use because the
// fleet probe records machine spans from sched workers.
type tracer struct {
	traceID string
	epoch   time.Time

	mu    sync.Mutex
	names []string
	index map[string]uint16
	spans []span
}

func newTracer(traceID string) *tracer {
	return &tracer{traceID: traceID, epoch: time.Now(), index: map[string]uint16{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nameID interns a span name. Callers hold mu, or own the tracer.
func (t *tracer) nameID(name string) uint16 {
	id, ok := t.index[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	return id
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: parent, name: t.nameID(name), start: start, end: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// appendSpans adds spans timed elsewhere; the replay loop buffers its
// per-call spans locally so each call costs only two clock reads.
func (t *tracer) appendSpans(spans []span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// durations returns the duration in ns of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.index[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.name == id && s.end >= 0 {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in ns: each
// span's duration minus the part of its interval that its children cover.
// Children may overlap (parallel workers), so the covered part is the
// length of the union of their intervals, clipped to the parent.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		covered := unionLen(children[int32(i)], s.start, s.end)
		out[t.names[s.name]] += float64(s.end - s.start - covered)
	}
	return out
}

// unionLen is the total length of the union of ivs clipped to [lo, hi].
func unionLen(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeTo writes the spans as tab-separated lines: trace id, span id,
// parent id, name, start ns, end ns.
func (t *tracer) writeTo(w io.Writer, header string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n# trace_id\tspan\tparent\tname\tstart_ns\tend_ns\n", header)
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%s\t%d\t%d\n", t.traceID, i, s.parent, t.names[s.name], s.start, s.end)
	}
	return bw.Flush()
}
