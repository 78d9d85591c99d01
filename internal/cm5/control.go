package cm5

import (
	"fmt"

	"repro/internal/sim"
)

// ReduceOp selects the combining operator of a control-network reduction.
type ReduceOp uint8

const (
	ReduceSum ReduceOp = iota
	ReduceMax
	ReduceMin
)

func (op ReduceOp) combine(a, b float64) float64 {
	switch op {
	case ReduceSum:
		return a + b
	case ReduceMax:
		if a > b {
			return a
		}
		return b
	case ReduceMin:
		if a < b {
			return a
		}
		return b
	default:
		panic("cm5: unknown reduce op")
	}
}

// CtlWaiter is what a collective wakes when a round releases: Released runs
// in kernel context, at the release instant, with the round's combined
// values. A long-lived object that implements it (a thread descriptor)
// waits without allocating.
type CtlWaiter interface {
	Released(or bool, red float64)
}

// ctlRound is one round of a collective operation. Rounds are identified
// by a per-primitive epoch; every node contributes exactly once per round
// and waits exactly once per round.
// Contributions are stored per node and combined in node order at release
// time, so the result — including floating-point reductions — is
// independent of arrival order and therefore of the shard count.
type ctlRound struct {
	epoch        uint64
	entered      []bool
	ors          []bool
	vals         []float64
	count        int
	maxT         sim.Time // latest contribution time; release = maxT + latency
	released     bool
	orVal        bool
	redVal       float64
	redOp        ReduceOp    // operator of this round (fixed per round)
	waiters      []CtlWaiter // per node; woken in node order
	pendingWaits int
	fire         func()    // the release action, bound once to this record
	next         *ctlRound // free list
}

// collective implements one collective primitive (barrier, global OR, or
// reduction) of the control network.
//
// Enters and waits mutate the round at once — under Machine.ctlmu on a
// sharded engine, where they arrive mid-span from every shard.
// Contributions commute (they are combined in node order only at
// release), so their host order never shows. The round's release is a
// global control event at maxT + latency; because every collective
// latency exceeds the data network's wire latency (the lookahead bound),
// it lands strictly beyond every event execution in flight when the round
// completes, and the engine cuts the running span just before it (see
// sim.Engine.AtGlobal) — so releases only ever fire between spans.
type collective struct {
	m       *Machine
	idx     int    // index into Node.ctlEnter/ctlWait
	rank    uint64 // key rank of this primitive's release globals
	latency func(*CostModel) sim.Duration
	rounds  map[uint64]*ctlRound
	free    *ctlRound // retired rounds, slices and release action included
}

// numCollectives is the number of control-network primitives (barrier,
// global OR, reduction) — the width of each Node's epoch bookkeeping.
const numCollectives = 3

func newCollective(m *Machine, idx int, rank uint64, latency func(*CostModel) sim.Duration) *collective {
	return &collective{
		m:       m,
		idx:     idx,
		rank:    rank,
		latency: latency,
		rounds:  make(map[uint64]*ctlRound),
	}
}

// round returns epoch's round, starting it on a recycled record if its
// first contribution is only now arriving.
func (c *collective) round(epoch uint64) *ctlRound {
	r, ok := c.rounds[epoch]
	if !ok {
		if r = c.free; r == nil {
			r = c.newRound()
		}
		c.free = r.next
		r.epoch, r.pendingWaits = epoch, c.m.N()
		c.rounds[epoch] = r
	}
	return r
}

func (c *collective) newRound() *ctlRound {
	n := c.m.N()
	r := &ctlRound{
		entered: make([]bool, n),
		ors:     make([]bool, n),
		vals:    make([]float64, n),
		waiters: make([]CtlWaiter, n),
	}
	r.fire = func() { c.release(r) }
	return r
}

// enter records node's contribution to its next round and, when the round
// is complete, schedules the release as a global control event keyed by
// (primitive rank, epoch) at the last contribution time plus the
// primitive's latency. The epoch bookkeeping is node-local; the round
// mutation is shared. It does not block.
func (c *collective) enter(n *Node, or bool, red float64, op ReduceOp) {
	node := n.id
	epoch := n.ctlEnter[c.idx]
	if epoch != n.ctlWait[c.idx] {
		panic(fmt.Sprintf("cm5: node %d entered a collective twice without waiting", node))
	}
	n.ctlEnter[c.idx] = epoch + 1
	if c.m.sharded() {
		c.m.ctlmu.Lock()
		defer c.m.ctlmu.Unlock()
	}
	r := c.round(epoch)
	r.redOp = op
	if r.entered[node] {
		panic(fmt.Sprintf("cm5: node %d double-entered collective round %d", node, epoch))
	}
	r.entered[node] = true
	r.ors[node] = or
	r.vals[node] = red
	r.count++
	if t := n.sh.Now(); t > r.maxT {
		r.maxT = t
	}
	if r.count == c.m.N() {
		c.m.eng.AtGlobal(r.maxT.Add(c.latency(&c.m.cost)), c.rank<<48|epoch, r.fire)
	}
}

// release combines the round's contributions in node order and wakes the
// registered waiters, also in node order. It fires as a global control
// event, so its position among same-time events is identical at any shard
// count.
func (c *collective) release(r *ctlRound) {
	or := false
	red := r.vals[0]
	for i, v := range r.vals {
		or = or || r.ors[i]
		if i > 0 {
			red = r.redOp.combine(red, v)
		}
	}
	r.orVal, r.redVal = or, red
	r.released = true
	for i, w := range r.waiters {
		if w != nil {
			r.waiters[i] = nil
			c.consume(r)
			w.Released(or, red)
		}
	}
}

// consume retires one of the round's N waits; the last one drops the round
// and returns its record to the free list, reset: every enter overwrites
// its ors and vals slot and release has emptied waiters. Called in global
// or sequential-kernel context, or mid-span under ctlmu, which serializes
// every rounds-map and free-list mutation against the other shards.
func (c *collective) consume(r *ctlRound) {
	r.pendingWaits--
	if r.pendingWaits == 0 {
		delete(c.rounds, r.epoch)
		clear(r.entered)
		r.count, r.maxT, r.released = 0, 0, false
		r.next, c.free = c.free, r
	}
}

// waitAsync consumes node's wait for its last-entered round. If the round
// has already released, it returns (true, or, red) and w is never woken.
// Otherwise it returns ready == false and w.Released runs — in kernel
// context, at the release instant — when the round releases.
func (c *collective) waitAsync(n *Node, w CtlWaiter) (ready, or bool, red float64) {
	node := n.id
	epoch := n.ctlWait[c.idx]
	if epoch >= n.ctlEnter[c.idx] {
		panic(fmt.Sprintf("cm5: node %d waited on a collective without entering", node))
	}
	n.ctlWait[c.idx] = epoch + 1
	if c.m.sharded() {
		c.m.ctlmu.Lock()
		defer c.m.ctlmu.Unlock()
	}
	// The node entered this round and has not consumed its wait, so the
	// round exists. Releases only fire between spans, so it is either
	// already released — take the values, retire the wait — or the
	// waiter registers for the release instant.
	r := c.rounds[epoch]
	if r.released {
		or, red = r.orVal, r.redVal
		c.consume(r)
		return true, or, red
	}
	r.waiters[node] = w
	return false, false, 0
}

// controlNetwork bundles the machine's collective primitives. The CM-5
// control network supplies a hardware barrier, a split-phase global-OR
// (the "set and get pair" of the paper), and hardware reductions.
type controlNetwork struct {
	barrier *collective
	or      *collective
	reduce  *collective
}

// Release-global key ranks. Crash globals use rank 0 (bare node keys), so
// at one instant crashes order before barrier releases, then OR, then
// reduce releases.
const (
	rankBarrier uint64 = 1
	rankOR      uint64 = 2
	rankReduce  uint64 = 3
)

func newControlNetwork(m *Machine) *controlNetwork {
	return &controlNetwork{
		barrier: newCollective(m, 0, rankBarrier, func(c *CostModel) sim.Duration { return c.BarrierLatency }),
		or:      newCollective(m, 1, rankOR, func(c *CostModel) sim.Duration { return c.ReduceLatency }),
		reduce:  newCollective(m, 2, rankReduce, func(c *CostModel) sim.Duration { return c.ReduceLatency }),
	}
}

// BarrierEnter contributes node's arrival to the current barrier round
// without blocking. Pair with BarrierWaitAsync.
func (n *Node) BarrierEnter() { n.m.ctl.barrier.enter(n, false, 0, ReduceSum) }

// BarrierWaitAsync consumes the barrier wait: it reports true if the
// round has already released; otherwise w is woken (in kernel context) on
// release.
func (n *Node) BarrierWaitAsync(w CtlWaiter) bool {
	ready, _, _ := n.m.ctl.barrier.waitAsync(n, w)
	return ready
}

// ReduceEnter contributes val to the current reduction round under op
// without blocking. Pair with ReduceWaitAsync. Every node of a round must
// pass the same op: the round combines under whichever applied last.
func (n *Node) ReduceEnter(val float64, op ReduceOp) {
	n.m.ctl.reduce.enter(n, false, val, op)
}

// ReduceWaitAsync consumes the reduction wait: ready is true (with the
// combined value) if the round has already released; otherwise w is woken
// (in kernel context) with the combined value on release.
func (n *Node) ReduceWaitAsync(w CtlWaiter) (ready bool, val float64) {
	ready, _, val = n.m.ctl.reduce.waitAsync(n, w)
	return ready, val
}

// ORWaitAsync consumes the global-OR wait: ready is true (with the OR
// value) if the round has already combined; otherwise w is woken (in
// kernel context) with the value on release.
func (n *Node) ORWaitAsync(w CtlWaiter) (ready, val bool) {
	ready, val, _ = n.m.ctl.or.waitAsync(n, w)
	return ready, val
}

// OREnter contributes v to the current split-phase global-OR round and
// returns immediately. Pair each OREnter with exactly one ORWaitAsync.
func (n *Node) OREnter(v bool) {
	n.m.ctl.or.enter(n, v, 0, ReduceSum)
}
