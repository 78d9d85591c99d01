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

// ctlRound is one round of a collective operation. Rounds are identified
// by a per-primitive epoch; every node contributes exactly once per round
// and waits exactly once per round (the barrier fuses the two).
// Contributions are stored per node and combined in node order at release
// time, so the result — including floating-point reductions — is
// independent of arrival order and therefore of the shard count.
type ctlRound struct {
	entered      []bool
	ors          []bool
	vals         []float64
	count        int
	maxT         sim.Time // latest contribution time; release = maxT + latency
	released     bool
	orVal        bool
	redVal       float64
	redOp        ReduceOp                     // operator of this round (fixed per round)
	waiters      []func(or bool, red float64) // per node; called in node order
	pendingWaits int
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

func (c *collective) round(epoch uint64) *ctlRound {
	r, ok := c.rounds[epoch]
	if !ok {
		n := c.m.N()
		r = &ctlRound{
			entered:      make([]bool, n),
			ors:          make([]bool, n),
			vals:         make([]float64, n),
			pendingWaits: n,
		}
		c.rounds[epoch] = r
	}
	return r
}

// enter records node's contribution to its next round. The epoch
// bookkeeping is node-local; the round mutation is shared. It does not
// block.
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
	c.applyEnter(epoch, node, n.sh.Now(), or, red, op)
}

// applyEnter lands one contribution in its round and, when the round is
// complete, schedules the release as a global control event keyed by
// (primitive rank, epoch) at the last contribution time plus the
// primitive's latency.
func (c *collective) applyEnter(epoch uint64, node int, t sim.Time, or bool, red float64, op ReduceOp) {
	r := c.round(epoch)
	r.redOp = op
	if r.entered[node] {
		panic(fmt.Sprintf("cm5: node %d double-entered collective round %d", node, epoch))
	}
	r.entered[node] = true
	r.ors[node] = or
	r.vals[node] = red
	r.count++
	if t > r.maxT {
		r.maxT = t
	}
	if r.count == c.m.N() {
		c.m.eng.AtGlobal(r.maxT.Add(c.latency(&c.m.cost)), c.rank<<48|epoch, func() {
			c.release(epoch)
		})
	}
}

// release combines the round's contributions in node order and runs the
// registered waiter callbacks, also in node order. It fires as a global
// control event, so its position among same-time events is identical at
// any shard count.
func (c *collective) release(epoch uint64) {
	r := c.rounds[epoch]
	n := c.m.N()
	or := false
	red := 0.0
	for i := 0; i < n; i++ {
		or = or || r.ors[i]
		if i == 0 {
			red = r.vals[0]
		} else {
			red = r.redOp.combine(red, r.vals[i])
		}
	}
	r.orVal, r.redVal = or, red
	r.released = true
	ws := r.waiters
	r.waiters = nil
	if ws == nil {
		return
	}
	for i := 0; i < n; i++ {
		if w := ws[i]; w != nil {
			c.consume(epoch)
			w(or, red)
		}
	}
}

// applyWait registers node's callback on its not-yet-released round.
func (c *collective) applyWait(epoch uint64, node int, cb func(or bool, red float64)) {
	r := c.round(epoch)
	if r.waiters == nil {
		r.waiters = make([]func(or bool, red float64), c.m.N())
	}
	r.waiters[node] = cb
}

// consume retires one of the round's N waits, dropping the round when the
// last one is consumed. Called in global or sequential-kernel context, or
// mid-span under ctlmu, which serializes every rounds-map mutation
// against the other shards.
func (c *collective) consume(epoch uint64) {
	r := c.rounds[epoch]
	r.pendingWaits--
	if r.pendingWaits == 0 {
		delete(c.rounds, epoch)
	}
}

// waitAsync consumes node's wait for its last-entered round. If the round
// has already released, it returns (true, or, red) and cb is never
// called. Otherwise it returns ready == false and cb fires — in kernel
// context, at the release instant — when the round releases.
func (c *collective) waitAsync(n *Node, cb func(or bool, red float64)) (ready, or bool, red float64) {
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
	// callback registers for the release instant.
	r := c.rounds[epoch]
	if r.released {
		c.consume(epoch)
		return true, r.orVal, r.redVal
	}
	c.applyWait(epoch, node, cb)
	return false, false, 0
}

// wait blocks node (parking p) until the round it last entered is released,
// then returns that round's combined values.
func (c *collective) wait(p *sim.Proc, n *Node) (bool, float64) {
	var orOut bool
	var redOut float64
	ready, or, red := c.waitAsync(n, func(o bool, r float64) {
		orOut, redOut = o, r
		p.Unpark()
	})
	if ready {
		return or, red
	}
	p.Park()
	return orOut, redOut
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

// Barrier blocks until every node of the machine has called Barrier for
// the same round. p must be running on this node's CPU. This parks the
// raw process; thread code should use the scheduler's Barrier wrapper so
// other threads can run while waiting.
func (n *Node) Barrier(p *sim.Proc) {
	b := n.m.ctl.barrier
	b.enter(n, false, 0, ReduceSum)
	b.wait(p, n)
}

// BarrierEnter contributes node's arrival to the current barrier round
// without blocking. Pair with BarrierWaitAsync.
func (n *Node) BarrierEnter() { n.m.ctl.barrier.enter(n, false, 0, ReduceSum) }

// BarrierWaitAsync consumes the barrier wait: it reports true if the
// round has already released; otherwise cb fires (in kernel context) on
// release.
func (n *Node) BarrierWaitAsync(cb func()) bool {
	ready, _, _ := n.m.ctl.barrier.waitAsync(n, func(bool, float64) { cb() })
	return ready
}

// ReduceEnter contributes val to the current reduction round under op
// without blocking. Pair with ReduceWaitAsync.
func (n *Node) ReduceEnter(val float64, op ReduceOp) {
	n.m.ctl.reduce.enter(n, false, val, op)
}

// ReduceWaitAsync consumes the reduction wait: ready is true (with the
// combined value) if the round has already released; otherwise cb fires
// (in kernel context) with the combined value on release.
func (n *Node) ReduceWaitAsync(cb func(float64)) (ready bool, val float64) {
	ready, _, val = n.m.ctl.reduce.waitAsync(n, func(_ bool, red float64) { cb(red) })
	return ready, val
}

// ORWaitAsync consumes the global-OR wait: ready is true (with the OR
// value) if the round has already combined; otherwise cb fires (in
// kernel context) with the value on release.
func (n *Node) ORWaitAsync(cb func(bool)) (ready, val bool) {
	ready, val, _ = n.m.ctl.or.waitAsync(n, func(or bool, _ float64) { cb(or) })
	return ready, val
}

// OREnter contributes v to the current split-phase global-OR round and
// returns immediately. Pair each OREnter with exactly one ORWait.
func (n *Node) OREnter(v bool) {
	n.m.ctl.or.enter(n, v, 0, ReduceSum)
}

// ORWait blocks until the global-OR round this node last entered has
// combined, and returns the OR across all nodes. Together with OREnter it
// forms a split-phase barrier: enter, overlap computation, wait.
func (n *Node) ORWait(p *sim.Proc) bool {
	or, _ := n.m.ctl.or.wait(p, n)
	return or
}

// Reduce performs a blocking all-node reduction of val under op and
// returns the combined value on every node.
//
// The operator is fixed per round; mixing operators across nodes within
// one round is a programming error that this implementation does not
// detect (the round combines under the operator of whichever contribution
// applied last). The evaluated applications only ever use one operator
// per call site.
func (n *Node) Reduce(p *sim.Proc, val float64, op ReduceOp) float64 {
	r := n.m.ctl.reduce
	r.enter(n, false, val, op)
	_, out := r.wait(p, n)
	return out
}
