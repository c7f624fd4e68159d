package pageheap

// DefaultLifetimeThreshold is the paper's C = 16: spans holding fewer
// than 16 objects are classified short-lived for the lifetime-aware
// filler (§4.4).
const DefaultLifetimeThreshold = 16

// LifetimeFeedback reports observed object lifetimes for a size class:
// the mean lifetime decade (floor(log10 ns), the heap profiler's site
// axis) over samples freed objects. A nil feed, or zero samples, means
// no observations yet.
type LifetimeFeedback func(class int) (meanDecade float64, samples int64)

// Classifier selects the rule that predicts the lifetime class of the
// spans a central free list will request, steering them to the short-
// or long-lived hugepage filler when the lifetime-aware back-end is
// enabled. The zero value is the paper's capacity rule.
type Classifier uint8

const (
	// ClassifierCapacity is the paper's static rule: spans with capacity
	// below the threshold C (large-object classes) are short-lived.
	ClassifierCapacity Classifier = iota
	// ClassifierFeedback predicts lifetimes from the sampled heap
	// profiler's observed per-class lifetime decades: once a class has
	// feedbackMinSamples freed samples, spans are short-lived when the
	// mean decade is at most feedbackShortDecade. Classes without enough
	// observations fall back to the capacity rule.
	ClassifierFeedback
)

const (
	// feedbackShortDecade is the inclusive mean-decade cutoff for
	// short-lived: 10^7 ns = 10 ms, comfortably inside a simulated
	// span's residency.
	feedbackShortDecade = 7
	// feedbackMinSamples gates the feedback path.
	feedbackMinSamples = 32
)

// Classify predicts the lifetime of spans of a size class. classIndex is
// the sizeclass table index, objectsPerSpan the span capacity, threshold
// the capacity rule's C (≤0 means DefaultLifetimeThreshold); feed may be
// nil when no profiler is attached.
func (c Classifier) Classify(classIndex, objectsPerSpan, threshold int, feed LifetimeFeedback) Lifetime {
	if c == ClassifierFeedback && feed != nil {
		if mean, n := feed(classIndex); n >= feedbackMinSamples {
			if mean <= feedbackShortDecade {
				return LifetimeShort
			}
			return LifetimeLong
		}
	}
	if threshold <= 0 {
		threshold = DefaultLifetimeThreshold
	}
	if objectsPerSpan < threshold {
		return LifetimeShort
	}
	return LifetimeLong
}
