package cm5

import (
	"repro/internal/sim"
)

// machineShard is the slice of machine state owned by one engine shard.
// During a parallel span a shard touches only its own machineShard (and
// the NICs of its own nodes); flights toward other shards leave through
// sim.Shard.Inject. With one shard there is exactly one of these.
type machineShard struct {
	stats NetStats

	// Hot-path free lists (owner-shard only; the coordinator may also
	// touch them between spans).
	freePkt   *Packet
	freeDeliv *delivery

	// live lists this shard's materialized nodes, in materialization
	// order. Barrier-time per-node work (occupancy snapshots) walks these
	// lists instead of all n node slots, keeping the barrier O(active).
	live []*Node

	// resv counts, per destination node, the NIC slots this shard has
	// claimed during the current span for cross-shard flights. Added to
	// the barrier-time occupancy snapshot, it gives the sender's
	// "network full" view without touching the remote NIC. Allocated on
	// the first cross-shard send; resvTouched lists the destinations with
	// nonzero counts so the barrier clears O(touched), not O(n).
	resv        []int32
	resvTouched []int32

	// Fault accounting is sharded and merged lazily at read (see
	// fault.go), so injection sites never contend.
	fstats   FaultStats
	fperNode map[int32]*NodeFaultStats
	fevents  []FaultEvent
}

// reserveCross records a span-local NIC-slot claim toward cross-shard
// destination dst (n is the machine's node count, sizing the table on
// first use).
func (ms *machineShard) reserveCross(n, dst int) {
	if ms.resv == nil {
		ms.resv = make([]int32, n)
	}
	if ms.resv[dst] == 0 {
		ms.resvTouched = append(ms.resvTouched, int32(dst))
	}
	ms.resv[dst]++
}

// resvFor reads this shard's span-local claims toward dst.
func (ms *machineShard) resvFor(dst int) int32 {
	if ms.resv == nil {
		return 0
	}
	return ms.resv[dst]
}

// Lookahead implements sim.WindowHook: a lower bound on how soon a packet
// injected at or after now can affect another shard. That is WireLatency
// (every fault extra is additive), clipped at the next fault-plan
// boundary so the bound never reaches across a point where the plan's
// behavior changes: an active ExtraJitter/slow configuration can only
// shrink it, never widen it.
func (m *Machine) Lookahead(now sim.Time) sim.Duration {
	la := m.cost.WireLatency
	if edge := m.NextBound(now); edge > now && sim.Duration(edge-now) < la {
		la = sim.Duration(edge - now)
	}
	if la < 1 {
		la = 1
	}
	return la
}

// NextBound implements sim.WindowHook: the earliest fault-plan boundary
// strictly after now — a slow-window or partition edge — or now itself
// when there is none. Commit spans are cut there so the lookahead chosen
// at span start stays valid for the whole span and plan-behavior changes
// coincide with commit points.
func (m *Machine) NextBound(now sim.Time) sim.Time {
	bound := now
	if f := m.fault; f != nil {
		clip := func(edge sim.Time) {
			if edge > now && (bound <= now || edge < bound) {
				bound = edge
			}
		}
		for _, w := range f.plan.Slow {
			clip(w.From)
			clip(w.To)
		}
		for _, w := range f.plan.Partitions {
			clip(w.From)
			clip(w.To)
		}
	}
	return bound
}

// Barrier implements sim.WindowHook: start the next span's admission
// view. Span-local reservations are cleared — Arrive has turned each into
// a real one on the destination NIC — and the occupancy snapshot is
// refreshed over materialized nodes only: an unmaterialized node has an
// empty NIC and its snapshot entry has been zero since birth, so
// O(active) covers all n. Runs on the coordinator goroutine with every
// shard quiescent, so it may touch any state.
func (m *Machine) Barrier() {
	for si := range m.shards {
		ms := &m.shards[si]
		for _, d := range ms.resvTouched {
			ms.resv[d] = 0
		}
		ms.resvTouched = ms.resvTouched[:0]
		for _, nd := range ms.live {
			m.snap[nd.id] = int32(nd.nic.count + nd.nic.reserved)
		}
	}
}
