// Package policy is the design-point registry behind the simulator's
// pluggable allocator architecture: every per-tier decision policy —
// front-end capacity resizing (percpu.Resizer), middle-tier routing
// (transfercache.Placement), span selection (centralfreelist.Selector),
// and span lifetime classification (pageheap.Classifier), each a closed
// enum in its tier — is registered here by name, and a serializable
// DesignPoint ("percpu=hetero,tc=nuca,cfl=prio8,filler=capacity")
// selects one policy per tier and builds the tier configurations for a
// core.Config. The paper's 2^4 feature grid is the cross-product of the
// first two policies of each tier; additional registered policies extend
// the design space without touching any tier package's callers.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"wsmalloc/internal/centralfreelist"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/percpu"
	"wsmalloc/internal/transfercache"
)

// Tier keys, in apply order. The filler tier applies last because its
// policies may install a lifetime classifier on the CFL configuration.
const (
	TierPerCPU = "percpu"
	TierTC     = "tc"
	TierCFL    = "cfl"
	TierFiller = "filler"
)

// TierConfigs is the per-tier configuration bundle a design point
// builds; core.ConfigForDesign wraps it with the tier-independent
// constants (latency model, release cadence, sampling interval).
type TierConfigs struct {
	PerCPU   percpu.Config
	Transfer transfercache.Config
	CFL      centralfreelist.Config
	PageHeap pageheap.Config
}

// Policy is one registered per-tier policy: a named mutation of the
// baseline tier configurations.
type Policy struct {
	// Tier is one of the Tier* keys.
	Tier string
	// Name is the registry key within the tier (e.g. "hetero").
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Apply mutates the tier configurations to select this policy.
	Apply func(*TierConfigs)
}

var (
	tierOrder = []string{TierPerCPU, TierTC, TierCFL, TierFiller}
	registry  = map[string][]Policy{}
	lookup    = map[string]map[string]Policy{}
)

// Register adds a policy to the registry; duplicate (tier, name) pairs
// and unknown tiers panic at init time.
func Register(p Policy) {
	if lookup[p.Tier] == nil {
		valid := false
		for _, t := range tierOrder {
			if t == p.Tier {
				valid = true
			}
		}
		if !valid {
			panic(fmt.Sprintf("policy: unknown tier %q", p.Tier))
		}
		lookup[p.Tier] = map[string]Policy{}
	}
	if _, dup := lookup[p.Tier][p.Name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration %s=%s", p.Tier, p.Name))
	}
	if p.Apply == nil {
		panic(fmt.Sprintf("policy: %s=%s has no Apply", p.Tier, p.Name))
	}
	lookup[p.Tier][p.Name] = p
	registry[p.Tier] = append(registry[p.Tier], p)
}

// Tiers returns the tier keys in apply order.
func Tiers() []string { return append([]string(nil), tierOrder...) }

// Names returns the registered policy names of a tier in registration
// order (baseline first).
func Names(tier string) []string {
	ps := registry[tier]
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Lookup finds a registered policy.
func Lookup(tier, name string) (Policy, bool) {
	p, ok := lookup[tier][name]
	return p, ok
}

// Apply applies the named policy of a tier to the configurations. An
// unknown tier or name returns an error listing what is registered.
func Apply(tier, name string, tc *TierConfigs) error {
	ps, ok := lookup[tier]
	if !ok {
		return fmt.Errorf("policy: unknown tier %q (tiers: %s)",
			tier, strings.Join(tierOrder, ", "))
	}
	p, ok := ps[name]
	if !ok {
		names := Names(tier)
		sort.Strings(names)
		return fmt.Errorf("policy: unknown %s policy %q (registered: %s)",
			tier, name, strings.Join(names, ", "))
	}
	p.Apply(tc)
	return nil
}

// baseTiers is the substrate every design point mutates: the baseline
// configuration of each tier (mirroring the legacy core.BaselineConfig).
func baseTiers() TierConfigs {
	return TierConfigs{
		PerCPU:   percpu.StaticConfig(),
		Transfer: transfercache.DefaultConfig(),
		CFL:      centralfreelist.LegacyConfig(),
		PageHeap: pageheap.DefaultConfig(),
	}
}

func init() {
	// percpu: front-end capacity policies (§4.1).
	Register(Policy{Tier: TierPerCPU, Name: "static",
		Desc:  "fixed 3 MiB per-vCPU caches, no resizing (legacy)",
		Apply: func(t *TierConfigs) { t.PerCPU = percpu.StaticConfig() }})
	Register(Policy{Tier: TierPerCPU, Name: "hetero",
		Desc:  "top-K miss-window capacity stealing at half the budget (paper §4.1)",
		Apply: func(t *TierConfigs) { t.PerCPU = percpu.HeterogeneousConfig() }})
	Register(Policy{Tier: TierPerCPU, Name: "ewma",
		Desc: "capacity stealing ranked by EWMA-smoothed misses (new)",
		Apply: func(t *TierConfigs) {
			t.PerCPU = percpu.StaticConfig()
			t.PerCPU.CapacityBytes = 3 << 19 // same halved budget as hetero
			t.PerCPU.Resizer = percpu.ResizerEWMA
		}})

	// tc: middle-tier routing policies (§4.2).
	Register(Policy{Tier: TierTC, Name: "central",
		Desc:  "one shared transfer cache (legacy)",
		Apply: func(t *TierConfigs) { t.Transfer = transfercache.DefaultConfig() }})
	Register(Policy{Tier: TierTC, Name: "nuca",
		Desc:  "per-LLC-domain caches over the shared fallback (paper §4.2)",
		Apply: func(t *TierConfigs) { t.Transfer.Placement = transfercache.PlacementNUCA }})
	Register(Policy{Tier: TierTC, Name: "pressure",
		Desc:  "NUCA with overflow frees biased to the least-full sibling domain (new)",
		Apply: func(t *TierConfigs) { t.Transfer.Placement = transfercache.PlacementPressure }})

	// cfl: span-selection policies (§4.3).
	Register(Policy{Tier: TierCFL, Name: "legacy",
		Desc:  "singleton span list, front-of-list allocation (legacy)",
		Apply: func(t *TierConfigs) { t.CFL = centralfreelist.LegacyConfig() }})
	Register(Policy{Tier: TierCFL, Name: "prio8",
		Desc:  "L=8 occupancy lists, fullest-first allocation (paper §4.3)",
		Apply: func(t *TierConfigs) { t.CFL = centralfreelist.DefaultConfig() }})
	Register(Policy{Tier: TierCFL, Name: "bestfit",
		Desc: "occupancy lists with lowest-address span within the fullest bucket (new)",
		Apply: func(t *TierConfigs) {
			t.CFL = centralfreelist.DefaultConfig()
			t.CFL.Selector = centralfreelist.SelectorBestFit
		}})

	// filler: span lifetime classification for the hugepage filler
	// (§4.4). Applied last: its policies may install a classifier on the
	// CFL configuration.
	Register(Policy{Tier: TierFiller, Name: "none",
		Desc:  "lifetime-agnostic filler (legacy)",
		Apply: func(t *TierConfigs) {}})
	Register(Policy{Tier: TierFiller, Name: "capacity",
		Desc:  "lifetime-aware filler, capacity-threshold C=16 classifier (paper §4.4)",
		Apply: func(t *TierConfigs) { t.PageHeap.LifetimeAware = true }})
	Register(Policy{Tier: TierFiller, Name: "heapprof",
		Desc: "lifetime-aware filler steered by sampled heap-profile lifetime decades (new)",
		Apply: func(t *TierConfigs) {
			t.PageHeap.LifetimeAware = true
			t.CFL.Classifier = pageheap.ClassifierFeedback
		}})
}
