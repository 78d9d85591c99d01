package kv

import (
	"math"

	"repro/internal/cm5"
	"repro/internal/sim"
)

// LoadMode shapes the open-loop arrival process.
type LoadMode uint8

const (
	// Steady: Poisson arrivals at a fixed rate.
	Steady LoadMode = iota
	// Bursty: each client alternates 1 ms on / 1 ms off square-wave
	// phases (phase offset drawn per client), so instantaneous load
	// doubles during the on-phase while the mean stays put.
	Bursty
	// Diurnal: every client follows one global triangle wave with a 4 ms
	// period, sweeping the whole fleet between half and three-halves of
	// the mean rate — a compressed day/night cycle.
	Diurnal
)

func (m LoadMode) String() string {
	switch m {
	case Steady:
		return "steady"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	default:
		return "LoadMode(?)"
	}
}

// rng is one client's private cm5.SplitMix stream. Each client seeds from
// (run seed, client id), so the arrival and op sequences are independent
// of shard count, scheduling order, and every other client.
type rng struct{ cm5.SplitMix }

func newRNG(seed int64, client int) *rng {
	return &rng{cm5.SplitMix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(client)<<32 ^ 0xd1b54a32d192ed03)}
}

// uniform returns a float in (0, 1]: never zero, so -log(u) is finite.
func (r *rng) uniform() float64 {
	return float64(r.Next()>>11+1) / float64(1<<53)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int(r.Next() % uint64(n)) }

const (
	burstPeriod   = sim.Duration(2000 * sim.Microsecond) // 1 ms on, 1 ms off
	diurnalPeriod = sim.Duration(4000 * sim.Microsecond)
)

// rateMult is the time-varying arrival-rate multiplier for one client.
// phase is the client's fixed offset into the burst cycle. The diurnal
// wave is a piecewise-linear triangle (no math.Sin: the triangle is
// exactly reproducible and libm-independent).
func rateMult(mode LoadMode, now sim.Time, phase sim.Duration) float64 {
	switch mode {
	case Bursty:
		in := (sim.Duration(now) + phase) % burstPeriod
		if in < burstPeriod/2 {
			return 2.0 // on-phase: double rate, mean preserved by the off-phase
		}
		return 0.1 // off-phase: a trickle, not silence, so the identity still exercises
	case Diurnal:
		in := sim.Duration(now) % diurnalPeriod
		half := diurnalPeriod / 2
		frac := float64(in) / float64(half)
		if in >= half {
			frac = 2 - frac
		}
		// Sweep 0.5x .. 1.5x and back across the period.
		return 0.5 + frac
	default:
		return 1.0
	}
}

// nextArrival draws one open-loop interarrival gap: exponential with
// mean IAT / (rateX * mult), clamped to [1 us, 50 * IAT] so a pathological
// draw can neither stall virtual time nor park a client past the run.
func nextArrival(r *rng, mean sim.Duration, rateX float64, mode LoadMode, now sim.Time, phase sim.Duration) sim.Duration {
	mult := rateMult(mode, now, phase) * rateX
	if mult <= 0 {
		mult = 1e-3
	}
	gap := sim.Duration(-math.Log(r.uniform()) * float64(mean) / mult)
	if gap < sim.Microsecond {
		gap = sim.Microsecond
	}
	if max := 50 * mean; gap > max {
		gap = max
	}
	return gap
}

// zipfTable is a precomputed CDF over [0, keys) for the Zipf(s)
// distribution; s == 0 degenerates to uniform (nil table). Shared
// read-only across all clients.
type zipfTable []float64

func newZipfTable(keys int, s float64) zipfTable {
	if s <= 0 || keys <= 1 {
		return nil
	}
	cdf := make(zipfTable, keys)
	sum := 0.0
	for k := 0; k < keys; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// pick draws one key: binary search of the CDF, or uniform when nil.
func (z zipfTable) pick(r *rng, keys int) uint32 {
	if z == nil {
		return uint32(r.intn(keys))
	}
	u := r.uniform()
	lo, hi := 0, len(z)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}
