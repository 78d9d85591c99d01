package obs

import (
	"math"

	"repro/internal/sim"
)

// TotalCount returns the histogram's sample count aggregated across all
// nodes.
func (h *Histogram) TotalCount() uint64 {
	var n uint64
	for _, v := range h.ns {
		n += v
	}
	return n
}

// Quantile extracts the q-th quantile (0 < q <= 1) of all samples,
// aggregated across nodes, as a bucket upper bound.
//
// Bucket-boundary rounding: a histogram only knows which bucket each
// sample fell in, so the quantile is resolved to the upper bound of the
// bucket holding the sample of rank ceil(q*n) (1-based, over the samples
// sorted ascending). The true quantile is therefore <= the returned
// value — quantiles round up, never down, and coarser buckets only make
// the bound looser. This is the right direction for SLO reporting: a
// reported p99 of 400us means at least 99% of requests finished within
// 400us of virtual time.
//
// The final overflow bucket has no finite upper bound. When the rank
// lands there, Quantile returns the last finite bound with ok=false: the
// value is then a lower bound, not an upper bound, and callers should
// render it as ">bound". A histogram with no samples returns (0, false).
func (h *Histogram) Quantile(q float64) (sim.Duration, bool) {
	if q <= 0 || q > 1 {
		panic("obs: Quantile wants 0 < q <= 1")
	}
	n := h.TotalCount()
	if n == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b := 0; b <= len(h.bounds); b++ {
		for node := range h.counts {
			if row := h.counts[node]; row != nil {
				cum += row[b]
			}
		}
		if cum >= rank {
			if b < len(h.bounds) {
				return h.bounds[b], true
			}
			break
		}
	}
	// Rank landed in the overflow bucket (or bounds is empty).
	if len(h.bounds) == 0 {
		return 0, false
	}
	return h.bounds[len(h.bounds)-1], false
}

// Percentiles returns the p50, p99, and p999 upper bounds (see Quantile
// for the bucket-boundary rounding contract). Ranks that land in the
// overflow bucket report the last finite bound — use Quantile directly
// when the distinction matters.
func (h *Histogram) Percentiles() (p50, p99, p999 sim.Duration) {
	p50, _ = h.Quantile(0.50)
	p99, _ = h.Quantile(0.99)
	p999, _ = h.Quantile(0.999)
	return
}

// Materialize pre-allocates the histogram's per-node storage including
// every node's bucket row. Instruments normally allocate lazily on first
// update, which is free on the sequential kernel but is a data race when
// two shards of a sharded engine first touch the same instrument inside
// one time window: call Materialize (before the run) on a histogram that
// shard-parallel code updates, so every update is a plain array store to
// a distinct per-node slot.
func (h *Histogram) Materialize() {
	if h.counts == nil {
		h.counts = make([][]uint64, h.nodes)
		h.sums = make([]sim.Duration, h.nodes)
		h.ns = make([]uint64, h.nodes)
	}
	for node := range h.counts {
		if h.counts[node] == nil {
			h.counts[node] = make([]uint64, len(h.bounds)+1)
		}
	}
}
