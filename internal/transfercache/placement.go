package transfercache

// Placement selects the middle-tier routing policy: which domain cache
// (if any) an allocation consults before the legacy cache, and where a
// free lands before spilling to the legacy cache and the backing tier.
// The zero value is the legacy centralized layout.
type Placement uint8

const (
	// PlacementCentral is the legacy layout: one shared transfer cache,
	// no per-domain caches.
	PlacementCentral Placement = iota
	// PlacementNUCA is the paper's §4.2 policy: each LLC domain gets its
	// own cache, consulted first on both allocation and free, with the
	// legacy cache as the shared fallback.
	PlacementNUCA
	// PlacementPressure is the domain-pressure-biased variant of NUCA:
	// allocations and first-choice frees behave like PlacementNUCA, but
	// frees that overflow their home domain spill into the least-full
	// sibling domain cache (for that size class) before falling back to
	// the shared legacy cache. Under an imbalanced producer/consumer
	// split this keeps objects in *some* domain cache — one cross-domain
	// transfer still beats a cold DRAM fetch — at the cost of more
	// inter-domain reuse.
	PlacementPressure
)

// UsesDomains reports whether the policy keeps per-domain caches; when
// false the layer builds only the centralized legacy cache (core.New
// asks it whether NumDomains must be filled from the machine topology).
func (p Placement) UsesDomains() bool { return p != PlacementCentral }

// pressureOverflow returns PlacementPressure's overflow target: the
// sibling domain whose cache for this class has the most free room (ties
// to the lowest domain index, deterministically), or -1 when every
// sibling is full.
func (t *TransferCaches) pressureOverflow(class, domain int) int {
	best, bestRoom := -1, 0
	for d := range t.domains {
		if d == domain {
			continue
		}
		c := &t.domains[d][class]
		if room := c.max - len(c.entries); room > bestRoom {
			best, bestRoom = d, room
		}
	}
	return best
}
