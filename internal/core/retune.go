package core

import (
	"wsmalloc/internal/policy"
)

// ApplyDesignPoint retunes a live allocator to a new design point: each
// tier's Swap protocol re-derives its construction-time state (cache
// capacities, NUCA domain caches, occupancy-list geometry, lifetime
// prediction) from the new tier configuration, draining cached objects
// downward — front-end to transfer caches, transfer caches to the
// central free lists — so no object is stranded under stale geometry.
// The swap order follows the drain direction: front, transfer, central
// free lists, then the pageheap.
//
// Only the four tier configurations change; the tier-independent knobs
// (latency model, sampling interval, release cadence, telemetry,
// fault plan) keep their construction-time values. The applied design's
// canonical string is recorded for snapshots and telemetry, so a
// checkpoint taken after the swap resumes bit-identically.
func (a *Allocator) ApplyDesignPoint(d policy.DesignPoint) error {
	t, err := d.Tiers()
	if err != nil {
		return err
	}
	tcfg := t.Transfer
	if tcfg.Placement.UsesDomains() {
		tcfg.NumDomains = a.topo.NumDomains()
	}
	a.front.Swap(t.PerCPU)
	a.transfer.Swap(tcfg)
	for _, l := range a.cfls {
		l.Swap(t.CFL)
	}
	a.heap.Swap(t.PageHeap)
	a.cfg.PerCPU = t.PerCPU
	a.cfg.Transfer = tcfg
	a.cfg.CFL = t.CFL
	a.cfg.PageHeap = t.PageHeap
	a.design = d.String()
	return nil
}

// ApplyDesign parses a canonical design-point string and applies it
// (the string-typed entry point the workload driver and daemon use, so
// they need not import the policy package).
func (a *Allocator) ApplyDesign(design string) error {
	d, err := policy.Parse(design)
	if err != nil {
		return err
	}
	return a.ApplyDesignPoint(d)
}

// Design returns the canonical string of the design point most recently
// applied mid-run, or "" when the construction-time configuration is
// still in force.
func (a *Allocator) Design() string { return a.design }
