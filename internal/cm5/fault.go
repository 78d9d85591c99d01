package cm5

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// FaultPlan is a seeded, deterministic schedule of data-network faults.
// The zero value (and a nil plan) injects nothing: every probability is 0,
// every schedule empty, so existing experiments stay bit-identical. All
// randomness is drawn from a dedicated source seeded by Seed, never from
// the engine's RNG, so installing a do-nothing plan does not perturb the
// wire-jitter draw stream either.
//
// Faults apply to the data network only. The control network (barriers,
// reductions) models the CM-5's separate, far more conservative fabric and
// stays lossless.
type FaultPlan struct {
	Seed int64 // seeds the fault RNG (drop, duplicate, jitter draws)

	DropProb    float64      // per-packet loss probability, all links
	DupProb     float64      // per-packet duplication probability
	ExtraJitter sim.Duration // extra uniform [0, ExtraJitter) delivery latency

	Links      []LinkFault  // per-link drop-probability overrides
	Partitions []Partition  // timed windows during which a link drops everything
	Crashes    []Crash      // node fail-stop schedule
	Slow       []SlowWindow // timed windows of extra per-node delivery latency
}

// LinkFault overrides the drop probability on one directed link.
type LinkFault struct {
	Src, Dst int
	DropProb float64
}

// Partition blackholes the directed link Src->Dst during [From, To).
// Src or Dst may be -1 to match any node.
type Partition struct {
	Src, Dst int
	From, To sim.Time
}

// Crash fail-stops a node at time At: every packet to or from it is
// discarded from then on (including packets already in flight toward it).
// The node's simulated process keeps running — a crashed machine cannot
// stop a coroutine — so application code that should honor the crash
// checks Node.Crashed and returns.
type Crash struct {
	Node int
	At   sim.Time
}

// SlowWindow adds Extra delivery latency to every packet addressed to
// Node during [From, To).
type SlowWindow struct {
	Node     int
	From, To sim.Time
	Extra    sim.Duration
}

// FaultKind labels one injected fault in the trace.
type FaultKind uint8

const (
	FaultDrop          FaultKind = iota // random per-packet loss
	FaultPartitionDrop                  // lost to a partition window
	FaultBlackhole                      // sender or receiver already crashed
	FaultLateDrop                       // receiver crashed while the packet was in flight
	FaultDuplicate                      // second copy delivered
	FaultSlow                           // slow-window latency added
	FaultCrash                          // node fail-stop instant
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultPartitionDrop:
		return "partition-drop"
	case FaultBlackhole:
		return "blackhole"
	case FaultLateDrop:
		return "late-drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultSlow:
		return "slow"
	case FaultCrash:
		return "crash"
	}
	return "unknown"
}

// FaultEvent records one injected fault. For FaultCrash, Src == Dst ==
// the crashed node.
type FaultEvent struct {
	T    sim.Time
	Kind FaultKind
	Src  int
	Dst  int
}

// FaultStats aggregates injected-fault counters across the machine.
type FaultStats struct {
	Dropped        uint64 // random per-packet losses
	PartitionDrops uint64 // losses inside partition windows
	Blackholed     uint64 // packets to/from an already-crashed node
	LateDrops      uint64 // in-flight packets whose receiver crashed first
	Duplicated     uint64 // extra copies delivered
	Slowed         uint64 // deliveries delayed by a slow window
	Crashes        uint64 // crash events fired
}

// Lost sums every way a packet can vanish.
func (s FaultStats) Lost() uint64 {
	return s.Dropped + s.PartitionDrops + s.Blackholed + s.LateDrops
}

// NodeFaultStats attributes faults to individual nodes: losses and
// duplicates to the sending node, blackholes and late drops to the
// crashed node they died at.
type NodeFaultStats struct {
	Dropped    uint64 // packets this node sent that the network lost
	Duplicated uint64 // packets this node sent that were duplicated
	Blackholed uint64 // packets discarded because this node crashed
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// faultState is the installed plan plus its runtime bookkeeping. All
// randomness is drawn from per-flight counter-seeded streams (see
// flightRNG), so a draw's value depends only on the flight's identity,
// and the mutable accounting (stats, per-node counters, the event trace)
// lives in the per-shard machine state, merged canonically at read time.
// What remains here is the immutable plan plus the crash flags, which
// flip only at crash globals — between spans — and are therefore safe
// to read from any shard mid-span.
type faultState struct {
	plan     FaultPlan
	linkDrop map[[2]int]float64
	crashed  []bool
}

// recordFault appends one fault to this shard's slice of the trace.
func (ms *machineShard) recordFault(ev FaultEvent) {
	ms.fevents = append(ms.fevents, ev)
}

// faultNode returns this shard's counters for node. The table is a map
// keyed by node, not an n-sized array: per-node fault attribution only
// pays for nodes that actually appear in fault events, so one crash in a
// 100k-node machine costs one entry, not 100k.
func (ms *machineShard) faultNode(node int) *NodeFaultStats {
	if ms.fperNode == nil {
		ms.fperNode = make(map[int32]*NodeFaultStats)
	}
	s := ms.fperNode[int32(node)]
	if s == nil {
		s = &NodeFaultStats{}
		ms.fperNode[int32(node)] = s
	}
	return s
}

// dropProb returns the effective loss probability for the link src->dst.
func (f *faultState) dropProb(src, dst int) float64 {
	if f.linkDrop != nil {
		if p, ok := f.linkDrop[[2]int{src, dst}]; ok {
			return p
		}
	}
	return f.plan.DropProb
}

func (f *faultState) partitioned(now sim.Time, src, dst int) bool {
	for _, w := range f.plan.Partitions {
		if (w.Src == -1 || w.Src == src) && (w.Dst == -1 || w.Dst == dst) &&
			now >= w.From && now < w.To {
			return true
		}
	}
	return false
}

// lossKind decides, at injection time, whether the packet is lost and why.
// Crash and partition checks draw no randomness; the drop roll happens
// only when the effective probability is positive. Draws come from the
// flight's own stream, in a fixed order (loss, then — for delivered
// packets — jitter, duplicate, duplicate jitter), so the outcome is a
// pure function of (plan, src, dst, attempt, time).
func (f *faultState) lossKind(fr *flightRNG, now sim.Time, src, dst int) (FaultKind, bool) {
	if f.crashed[src] || f.crashed[dst] {
		return FaultBlackhole, true
	}
	if f.partitioned(now, src, dst) {
		return FaultPartitionDrop, true
	}
	if p := f.dropProb(src, dst); p > 0 && fr.float64() < p {
		return FaultDrop, true
	}
	return 0, false
}

// extraLatency returns the additional delivery latency for a packet to dst
// injected now: slow-window extras (recorded into the sender's shard)
// plus an ExtraJitter draw from the flight's stream.
func (f *faultState) extraLatency(fr *flightRNG, ms *machineShard, now sim.Time, src, dst int) sim.Duration {
	var extra sim.Duration
	for _, w := range f.plan.Slow {
		if w.Node == dst && now >= w.From && now < w.To {
			extra += w.Extra
			ms.fstats.Slowed++
			ms.recordFault(FaultEvent{T: now, Kind: FaultSlow, Src: src, Dst: dst})
		}
	}
	if f.plan.ExtraJitter > 0 {
		extra += sim.Duration(fr.int63n(int64(f.plan.ExtraJitter)))
	}
	return extra
}

func (f *faultState) duplicate(fr *flightRNG) bool {
	return f.plan.DupProb > 0 && fr.float64() < f.plan.DupProb
}

// SetFaultPlan installs a fault plan on the machine's data network. Call
// it once, before the simulation starts (crash schedules are posted as
// global control events at install time). A nil plan — the default —
// means a perfect network.
func (m *Machine) SetFaultPlan(plan *FaultPlan) {
	if plan == nil {
		m.fault = nil
		return
	}
	f := &faultState{
		plan:    *plan,
		crashed: make([]bool, len(m.nodes)),
	}
	if len(plan.Links) > 0 {
		f.linkDrop = make(map[[2]int]float64, len(plan.Links))
		for _, l := range plan.Links {
			f.linkDrop[[2]int{l.Src, l.Dst}] = l.DropProb
		}
	}
	for _, cr := range plan.Crashes {
		if cr.Node < 0 || cr.Node >= len(m.nodes) {
			panic(fmt.Sprintf("cm5: crash schedule names node %d of %d", cr.Node, len(m.nodes)))
		}
		cr := cr
		// A crash is a global control transition: at its instant it fires
		// before every same-time delivery and ordinary event, on any
		// shard, which pins its place in the total event order whatever
		// the shard count. Crash keys sort below collective releases.
		m.eng.AtGlobal(cr.At, uint64(cr.Node), func() {
			if f.crashed[cr.Node] {
				return
			}
			f.crashed[cr.Node] = true
			m.shards[0].fstats.Crashes++
			m.shards[0].recordFault(FaultEvent{T: cr.At, Kind: FaultCrash, Src: cr.Node, Dst: cr.Node})
		})
	}
	m.fault = f
}

// FaultStats returns the machine-wide injected-fault counters (zero when
// no plan is installed), summed across shards.
func (m *Machine) FaultStats() FaultStats {
	var out FaultStats
	for i := range m.shards {
		s := &m.shards[i].fstats
		out.Dropped += s.Dropped
		out.PartitionDrops += s.PartitionDrops
		out.Blackholed += s.Blackholed
		out.LateDrops += s.LateDrops
		out.Duplicated += s.Duplicated
		out.Slowed += s.Slowed
		out.Crashes += s.Crashes
	}
	return out
}

// NodeFaults returns the fault counters attributed to node i, summed
// across shards.
func (m *Machine) NodeFaults(i int) NodeFaultStats {
	var out NodeFaultStats
	for s := range m.shards {
		if pn := m.shards[s].fperNode[int32(i)]; pn != nil {
			out.Dropped += pn.Dropped
			out.Duplicated += pn.Duplicated
			out.Blackholed += pn.Blackholed
		}
	}
	return out
}

// FaultEvents returns the record of every injected fault in canonical
// (time, src, dst, kind) order. The canonical order — rather than raw
// recording order — is what both the sequential and the sharded kernel
// expose, so the trace (and its hash) is shard-count-independent.
func (m *Machine) FaultEvents() []FaultEvent {
	n := 0
	for i := range m.shards {
		n += len(m.shards[i].fevents)
	}
	if n == 0 {
		return nil
	}
	out := make([]FaultEvent, 0, n)
	for i := range m.shards {
		out = append(out, m.shards[i].fevents...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Kind < b.Kind
	})
	return out
}

// FaultTraceHash folds the canonical fault-event record into a single
// FNV-1a hash: two runs with the same seed and the same plan must agree
// on it, at any shard count.
func (m *Machine) FaultTraceHash() uint64 {
	h := uint64(fnvOffset64)
	for _, ev := range m.FaultEvents() {
		for _, v := range [4]uint64{uint64(ev.T), uint64(ev.Kind), uint64(ev.Src), uint64(ev.Dst)} {
			for i := 0; i < 8; i++ {
				h ^= (v >> (8 * i)) & 0xff
				h *= fnvPrime64
			}
		}
	}
	return h
}

// Crashed reports whether node i has fail-stopped.
func (m *Machine) Crashed(i int) bool {
	return m.fault != nil && m.fault.crashed[i]
}

// Crashed reports whether this node has fail-stopped.
func (n *Node) Crashed() bool { return n.m.Crashed(n.id) }
