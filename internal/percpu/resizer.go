package percpu

import (
	"sort"

	"wsmalloc/internal/telemetry"
)

// Resizer selects the front-end capacity policy run every
// ResizeIntervalNs. The zero value is the legacy statically-sized
// layout.
type Resizer uint8

const (
	// ResizerStatic never moves capacity (legacy).
	ResizerStatic Resizer = iota
	// ResizerSteal is the paper's heterogeneous policy (§4.1): the TopK
	// caches with the most misses in the last window grow with capacity
	// stolen round-robin from the rest.
	ResizerSteal
	// ResizerEWMA ranks caches by an exponentially-weighted moving
	// average of their per-window misses instead of the instantaneous
	// window, so a single bursty interval cannot flip the grow set and
	// capacity follows sustained demand.
	ResizerEWMA
)

// ewmaAlpha is ResizerEWMA's smoothing factor.
const ewmaAlpha = 0.3

// resize runs one pass of a stealing policy: the populated caches are
// ranked by score (window misses, or their EWMA), the top TopK with a
// positive score grow with capacity stolen round-robin from the rest,
// and every miss window restarts.
func (c *Caches) resize() {
	type cand struct {
		idx   int
		score float64
	}
	ewma := c.cfg.Resizer == ResizerEWMA
	var pop []cand
	for i, cc := range c.caches {
		if cc == nil {
			continue
		}
		score := float64(cc.missWindow)
		if ewma {
			cc.missEWMA = ewmaAlpha*score + (1-ewmaAlpha)*cc.missEWMA
			score = cc.missEWMA
		}
		pop = append(pop, cand{i, score})
	}
	if len(pop) >= 2 {
		ranked := append([]cand(nil), pop...)
		// sort.Slice is not stable: the steal order compares window
		// misses alone, and EWMA breaks ties by vCPU index. Changing
		// either comparator changes the grow sets.
		less := func(i, j int) bool { return ranked[i].score > ranked[j].score }
		if ewma {
			less = func(i, j int) bool {
				if ranked[i].score != ranked[j].score {
					return ranked[i].score > ranked[j].score
				}
				return ranked[i].idx < ranked[j].idx
			}
		}
		sort.Slice(ranked, less)
		k := c.cfg.TopK
		if k > len(ranked) {
			k = len(ranked)
		}
		grow := map[int]bool{}
		var growList []int
		for _, p := range ranked[:k] {
			if p.score > 0 {
				grow[p.idx] = true
				growList = append(growList, p.idx)
			}
		}
		victims := make([]int, len(pop))
		for i, p := range pop {
			victims[i] = p.idx
		}
		c.stealRoundRobin(victims, grow, growList)
	}
	for _, p := range pop {
		c.caches[p.idx].missWindow = 0
	}
}

// stealRoundRobin moves up to StepBytes of capacity to each grow target,
// taken round-robin from the remaining populated caches: the slow-start
// bound relocates with the capacity so the summed bound is conserved,
// and victims evict down to their shrunken capacity immediately.
func (c *Caches) stealRoundRobin(victims []int, grow map[int]bool, growList []int) {
	for _, target := range growList {
		moved := int64(0)
		for scan := 0; scan < len(victims) && moved < c.cfg.StepBytes; scan++ {
			c.stealCursor = (c.stealCursor + 1) % len(victims)
			victim := victims[c.stealCursor]
			if grow[victim] {
				continue
			}
			vc := c.caches[victim]
			avail := vc.capacity - c.cfg.MinCapacityBytes
			if avail <= 0 {
				continue
			}
			step := c.cfg.StepBytes - moved
			if step > avail {
				step = avail
			}
			// Move the slow-start bound together with the capacity:
			// otherwise the victim regrows its loss on later misses
			// while the target keeps the stolen excess, inflating the
			// summed capacity past the configured budget.
			vc.capacity -= step
			vc.bound -= step
			c.evictToCapacity(vc, victim)
			c.caches[target].capacity += step
			c.caches[target].bound += step
			moved += step
			c.resizes++
			c.tel.Event(telemetry.EvPerCPUSteal, int64(victim), step)
		}
	}
}
