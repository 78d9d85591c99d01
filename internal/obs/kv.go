package obs

import (
	"fmt"

	"repro/internal/apps/kv"
	"repro/internal/sim"
)

// kvOutcomes enumerates kv.Outcome values in order, for per-outcome
// counters.
var kvOutcomes = [4]kv.Outcome{
	kv.OutcomeOK, kv.OutcomeDrop, kv.OutcomeShed, kv.OutcomeTimeout,
}

// KVLatBounds are the SLO-grade latency buckets: tight enough at the
// bottom to resolve a healthy p50, wide enough at the top to hold the
// retry-and-back-off tail without overflowing. Quantiles resolve to
// bucket upper bounds, so these are the service's reportable SLO levels.
var KVLatBounds = []sim.Duration{
	sim.Micros(10), sim.Micros(30), sim.Micros(100), sim.Micros(300),
	sim.Micros(1000), sim.Micros(3000), sim.Micros(10000), sim.Micros(30000),
	sim.Micros(100000),
}

// tidKV is the key-value service track: admission sheds and failed
// arrivals, all on the node they happened on. Its thread_name metadata is
// emitted lazily on the first service event, so traces of programs
// without the service are byte-identical to before the track existed.
const tidKV = 8

// kvTrack lazily names the service track on one node.
func (c *Collector) kvTrack(node int) {
	if c.kvMeta == nil {
		c.kvMeta = make(map[int]bool)
	}
	if !c.kvMeta[node] {
		c.kvMeta[node] = true
		c.tb.threadMeta(node, tidKV, "kv")
	}
}

// --- kv.Probe ---

// RequestDone counts one arrival's final classification and feeds the
// SLO latency histogram. Successful requests leave no trace instant —
// their rpc spans already tell that story — but every failed arrival is
// marked where it failed.
func (c *Collector) RequestDone(t sim.Time, client int, op kv.Op, out kv.Outcome, lat sim.Duration) {
	c.cKVDone[int(out)].Inc(client)
	if out != kv.OutcomeDrop {
		c.hKVLat.Observe(client, lat)
	}
	if c.tb != nil && out != kv.OutcomeOK {
		c.kvTrack(client)
		c.tb.instant("kv "+out.String(), "kv", t, client, tidKV,
			fmt.Sprintf(`{"op":"%s","latency_us":%.1f}`, op.String(), float64(lat)/float64(sim.Microsecond)))
	}
}

// ServerShed counts one admission rejection on the shedding server.
func (c *Collector) ServerShed(t sim.Time, server, depth int) {
	c.cKVSheds.Inc(server)
	if c.tb != nil {
		c.kvTrack(server)
		c.tb.instant("kv shed", "kv", t, server, tidKV,
			fmt.Sprintf(`{"depth":%d}`, depth))
	}
}
