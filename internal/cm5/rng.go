package cm5

// flightRNG is a tiny splitmix64 stream seeded per flight from
// (seed, src, dst, attempt). Every packet injection gets its own stream,
// so the value of any random draw — loss roll, duplicate roll, jitter —
// depends only on which flight it belongs to, never on how unrelated
// events interleave. That independence is what lets shards execute sends
// in parallel and still reproduce the sequential run bit for bit; it also
// fixes the order-dependence the old shared generators had even
// sequentially (adding a link elsewhere used to shift every later draw).
type flightRNG struct {
	s uint64
}

// wireSalt decouples the cost-model wire-jitter stream (seeded from the
// engine seed) from the fault stream (seeded from the plan seed), so the
// two never alias even when the seeds are equal.
const wireSalt = 0x71c9d1f0a5b3e847

// newFlightRNG seeds a stream for one (src, dst, attempt) flight. The raw
// combination is whitened by the first splitmix step, so nearby counters
// still produce uncorrelated leading draws.
func newFlightRNG(seed uint64, src, dst int, attempt uint64, salt uint64) flightRNG {
	return flightRNG{s: seed ^ uint64(src)<<32 ^ uint64(dst) ^ attempt<<16 ^ salt}
}

func (r *flightRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *flightRNG) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// int63n returns a uniform draw in [0, n). The modulo bias is far below
// anything the simulated latency distributions can resolve.
func (r *flightRNG) int63n(n int64) int64 {
	return int64(r.next()>>1) % n
}
