package cm5

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// Machine is a simulated multicomputer: N nodes, a data network, and a
// control network. All methods must be called from simulation context
// (process bodies or kernel callbacks) on the shard that owns the node
// involved — with a sequential engine that is the familiar
// "single-threaded like the kernel" rule; with a sharded engine the
// machine partitions its nodes across the engine's shards (contiguous
// blocks) and registers itself as the engine's window hook, through which
// cross-shard flights reach their destination shard.
type Machine struct {
	eng   *sim.Engine
	cost  CostModel
	nodes []*Node
	ctl   *controlNetwork
	fault *faultState // nil = perfect network (the default)
	probe Probe       // nil = no observer (the default, allocation-free)

	// shards holds the per-engine-shard slice of machine state (stats,
	// pools, span-local reservations). Exactly one entry on a sequential
	// engine.
	shards []machineShard
	// snap is the barrier-time NIC occupancy (queued + reserved) of every
	// node; senders on other shards read it, plus their own in-span
	// reservations, as the "network full" signal. Sharded engines only.
	snap []int32

	// ctlmu serializes the shards' mid-span collective mutations. A
	// sequential engine never takes it.
	ctlmu sync.Mutex
}

// NetStats aggregates data-network traffic counters.
type NetStats struct {
	SmallSent    uint64
	BulkSent     uint64
	BytesSent    uint64
	FullRejects  uint64 // TryInject calls rejected because the NIC was full
	MaxQueueSeen int    // high-water mark across all NIC input queues
}

// Probe observes data-network traffic: injections, wire flights, losses,
// deliveries, and backpressure. Probes are pure observers — they must not
// schedule events or charge virtual time. All hooks run only when a probe
// is installed, so the disabled path stays allocation-free. Probes see
// mid-span state from multiple goroutines under a sharded engine, so
// they are only supported with one shard (sim.Engine.SetProbe enforces
// the same rule for its own probes).
type Probe interface {
	// PacketSent fires at injection time, before the sender is charged:
	// the sender's CPU is busy for busy, then the packet flies for wire.
	// When the network forged a duplicate, dup is true and the copy's own
	// flight takes dupWire.
	PacketSent(t sim.Time, pkt *Packet, busy, wire sim.Duration, dup bool, dupWire sim.Duration)
	// PacketLost fires when the network eats a packet (drop, partition,
	// blackhole at send time, or a late drop into a crashed receiver).
	PacketLost(t sim.Time, src, dst int, kind FaultKind)
	// PacketDelivered fires when a packet lands in dst's input queue;
	// queueDepth is the queue occupancy after the delivery.
	PacketDelivered(t sim.Time, pkt *Packet, queueDepth int)
	// Backpressure fires when TryInject refuses a send because the
	// destination NIC is full.
	Backpressure(t sim.Time, src, dst int)
}

// SetProbe installs a traffic probe; pass nil to disable.
func (m *Machine) SetProbe(p Probe) {
	if p != nil && len(m.shards) > 1 {
		panic("cm5: traffic probes require a sequential engine (shards=1)")
	}
	m.probe = p
}

// NewMachine creates a machine with n nodes. The nodes are partitioned
// across the engine's shards in contiguous blocks (node i on shard
// i*S/n); with a sharded engine the machine installs itself as the
// window hook.
//
// Nodes are lazy: NewMachine allocates only the node-pointer table, and
// a node's struct (NIC, RNG attempt counters, stats attribution)
// materializes on first touch — Node(i), a first delivery, a first send.
// A machine whose workload touches k of its n nodes costs O(n) pointers
// plus O(k) real state, which is what lets one engine host 100k+
// simulated clients.
func NewMachine(eng *sim.Engine, n int, cost CostModel) *Machine {
	if n < 1 {
		panic("cm5: machine needs at least one node")
	}
	m := &Machine{eng: eng, cost: cost}
	s := eng.Shards()
	m.shards = make([]machineShard, s)
	m.nodes = make([]*Node, n)
	if s > 1 {
		m.snap = make([]int32, n)
		eng.SetWindowHook(m)
	}
	m.ctl = newControlNetwork(m)
	// Pre-size the engine's calendar queues for the population this node
	// count implies (a pending timer or flight or two per active node).
	eng.HintEvents(2 * n)
	return m
}

// shardIndex returns the index of the engine shard owning node i —
// contiguous blocks, the same formula for every caller, computable
// without materializing the node.
func (m *Machine) shardIndex(i int) int { return i * len(m.shards) / len(m.nodes) }

// materialize builds node i on first touch. It may be called only from
// the owning shard's simulation context or from the coordinator with the
// shards quiescent (setup code, barriers, globals): those are exactly
// the contexts allowed to touch the node afterwards, so the sender-side
// paths below never dereference a remote node — they work from the node
// index alone.
func (m *Machine) materialize(i int) *Node {
	si := m.shardIndex(i)
	ms := &m.shards[si]
	nd := &Node{
		id:  i,
		m:   m,
		nic: newNIC(m.cost.NICQueueCap),
		sh:  m.eng.Shard(si),
		ms:  ms,
	}
	m.nodes[i] = nd
	// live is the shard-local materialized-node list: the barrier
	// iterates it (occupancy snapshots) instead of sweeping all n slots.
	ms.live = append(ms.live, nd)
	return nd
}

// Engine returns the simulation engine driving this machine.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Cost returns the machine's cost model.
func (m *Machine) Cost() CostModel { return m.cost }

// N returns the number of nodes.
func (m *Machine) N() int { return len(m.nodes) }

// Node returns node i, materializing it on first touch. Call it from
// the shard that owns node i (or from setup/barrier context); sender
// paths that only need to aim at a node use its index instead.
func (m *Machine) Node(i int) *Node {
	if nd := m.nodes[i]; nd != nil {
		return nd
	}
	return m.materialize(i)
}

// sharded reports whether the machine spans more than one engine shard.
func (m *Machine) sharded() bool { return len(m.shards) > 1 }

// Stats returns the machine's traffic counters, summed across shards
// (high-water marks are max-merged).
func (m *Machine) Stats() NetStats {
	var out NetStats
	for i := range m.shards {
		s := &m.shards[i].stats
		out.SmallSent += s.SmallSent
		out.BulkSent += s.BulkSent
		out.BytesSent += s.BytesSent
		out.FullRejects += s.FullRejects
		if s.MaxQueueSeen > out.MaxQueueSeen {
			out.MaxQueueSeen = s.MaxQueueSeen
		}
	}
	return out
}

// AllocPacket takes a packet from the pool of the node's shard (or the
// heap when the pool is dry). The packet is returned to a pool by
// ReleasePacket after its handler runs; see the ownership rules on
// Packet. Senders should allocate through their own node so pool access
// stays shard-local.
func (n *Node) AllocPacket() *Packet { return n.ms.allocPacket() }

func (ms *machineShard) allocPacket() *Packet {
	p := ms.freePkt
	if p == nil {
		p = new(Packet)
	} else {
		ms.freePkt = p.poolNext
		p.poolNext = nil
	}
	p.pooled = true
	p.refs = 1
	return p
}

// ReleasePacket returns a pooled packet to this node's shard pool once
// its last delivery has been handled. Hand-built packets (pooled ==
// false) and duplicated packets with deliveries still outstanding are
// left alone. The payload buffer is dropped, never reused: receivers may
// retain it. Packets may retire to a different shard's pool than they
// were allocated from; pools only recycle structs, so migration is
// harmless.
func (n *Node) ReleasePacket(p *Packet) { n.ms.releasePacket(p) }

func (ms *machineShard) releasePacket(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	if p.refs > 1 {
		p.refs--
		return
	}
	*p = Packet{poolNext: ms.freePkt}
	ms.freePkt = p
}

// delivery is a pooled, closure-free packet-delivery event: the typed
// {packet} record that replaces the per-packet func() previously captured
// at injection time. It carries the destination shard's pool so recycling
// stays shard-local wherever the record was created.
type delivery struct {
	m    *Machine
	ms   *machineShard
	pkt  *Packet
	next *delivery
}

// Run implements sim.Action: recycle the delivery record, then complete
// the transfer into the destination NIC.
func (d *delivery) Run() {
	m, ms, pkt := d.m, d.ms, d.pkt
	d.pkt = nil
	d.next = ms.freeDeliv
	ms.freeDeliv = d
	m.completeDelivery(pkt)
}

// newDelivery takes a delivery record from ms's pool. ms must be the
// destination node's shard (the record recycles there when it fires).
func (m *Machine) newDelivery(ms *machineShard, pkt *Packet) *delivery {
	d := ms.freeDeliv
	if d == nil {
		d = &delivery{m: m}
	} else {
		ms.freeDeliv = d.next
		d.next = nil
	}
	d.ms = ms
	d.pkt = pkt
	return d
}

// completeDelivery lands a packet that finished its wire flight: either
// into the destination's input queue (waking the node) or, if the receiver
// crashed while the packet was in flight, into the fault accounting. It
// always runs on the destination node's shard.
func (m *Machine) completeDelivery(pkt *Packet) {
	dst := m.Node(pkt.Dst)
	now := dst.sh.Now()
	if f := m.fault; f != nil && f.crashed[pkt.Dst] {
		dst.nic.abandon()
		dst.ms.fstats.LateDrops++
		dst.ms.faultNode(pkt.Dst).Blackholed++
		dst.ms.recordFault(FaultEvent{T: now, Kind: FaultLateDrop, Src: pkt.Src, Dst: pkt.Dst})
		if m.probe != nil {
			m.probe.PacketLost(now, pkt.Src, pkt.Dst, FaultLateDrop)
		}
		dst.ReleasePacket(pkt)
		return
	}
	dst.nic.deliver(pkt)
	if q := dst.nic.pending(); q > dst.ms.stats.MaxQueueSeen {
		dst.ms.stats.MaxQueueSeen = q
	}
	if m.probe != nil {
		m.probe.PacketDelivered(now, pkt, dst.nic.pending())
	}
	if dst.wake != nil {
		dst.wake()
	}
	if dst.waiter != nil {
		dst.waiter.StepWake()
	}
}

// Node is one processor of the machine. The node itself is passive: the
// thread package supplies its CPU (a simulation process), and the am
// package supplies its packet dispatch routine.
type Node struct {
	id  int
	m   *Machine
	nic *nic

	// sh is the engine shard that owns this node: every process running
	// on the node, every timer it arms, and every packet delivered to it
	// lives on this shard.
	sh *sim.Shard
	// ms is the machine-state slice of that shard.
	ms *machineShard

	// flightSeq counts delivery copies this node has launched; packed
	// with the node id it is the canonical delivery key that totally
	// orders same-instant packet arrivals machine-wide.
	flightSeq uint64
	// attempts counts TryInject calls per destination; it seeds the
	// per-flight RNG streams, so a draw's value depends only on
	// (src, dst, attempt), never on unrelated event order. Sparse: a
	// dense per-destination array here was the machine's O(nodes²).
	attempts PeerTable[uint64]
	// ctlEnter/ctlWait are this node's collective epochs (entered and
	// waited rounds), indexed by collective (barrier, OR, reduce). They
	// live on the Node rather than in n-sized arrays on the collectives
	// so an untouched node costs the control network nothing, and they
	// are node-local, so shard goroutines never contend on them.
	ctlEnter [numCollectives]uint64
	ctlWait  [numCollectives]uint64

	// wake, if non-nil, is invoked (in kernel context) when a packet is
	// delivered into this node's input queue. The thread scheduler
	// registers its idle process here so delivery can end an idle wait.
	wake func()
	// waiter is the process in WaitPacket, to be woken by a delivery.
	waiter *sim.Proc
	// inj is what TryInjectThen leaves for the instant its busy charge
	// elapses — the copies to launch, then the caller's charge — while one
	// is in progress (busy).
	inj struct {
		busy          bool
		pkt           *Packet
		wire, dupWire sim.Duration
		dup           bool
		then          sim.Duration
	}
}

// injecting is a Node seen as the sim.Continuation of the process in
// TryInjectThen.
type injecting Node

func (i *injecting) Continue(*sim.Proc) (sim.Next, sim.Duration) {
	n := (*Node)(i)
	in := &n.inj
	if pkt := in.pkt; pkt != nil {
		in.pkt = nil
		n.launch(pkt, in.wire, in.dup, in.dupWire)
		if in.then >= 0 {
			return sim.NextCharge, in.then
		}
	}
	in.busy = false
	return sim.NextRun, 0
}

// ID returns the node number, 0-based.
func (n *Node) ID() int { return n.id }

// Machine returns the owning machine.
func (n *Node) Machine() *Machine { return n.m }

// Shard returns the engine shard that owns this node. Layers running
// code on the node (thread schedulers, transports, RPC runtimes) must
// schedule their timers and processes through it.
func (n *Node) Shard() *sim.Shard { return n.sh }

// SetWake registers fn to be called whenever a packet is delivered into
// this node's input queue. Pass nil to clear.
func (n *Node) SetWake(fn func()) { n.wake = fn }

// Pending reports how many received packets are waiting to be polled.
func (n *Node) Pending() int { return n.nic.pending() }

// InFlight reports whether any packets are reserved toward this node but
// not yet delivered.
func (n *Node) InFlight() bool { return n.nic.reserved > 0 }

// NetworkFull reports whether an injection toward dst would be refused
// right now. This is the OAM "network busy" abort condition.
func (n *Node) NetworkFull(dst int) bool {
	return n.dstFull(dst)
}

// dstFull is the sender-side "network full" predicate, working from the
// destination index alone so aiming at a node never materializes it (an
// unmaterialized node has an empty NIC by construction). For a
// destination on the sender's own shard it reads the NIC exactly, as
// always. For a cross-shard destination it conservatively combines the
// barrier-time occupancy snapshot with the reservations this shard has
// made toward dst during the current span; it cannot see same-span
// pops or other shards' reservations, which is the one place sharded
// execution is approximate — workloads that saturate a NIC within a
// single commit span should run with one shard. Every NIC has
// capacity cost.NICQueueCap, so the remote check needs no remote state.
func (n *Node) dstFull(dst int) bool {
	if n.m.shardIndex(dst) == n.sh.Index() {
		if nd := n.m.nodes[dst]; nd != nil {
			return nd.nic.full()
		}
		return false
	}
	return int(n.m.snap[dst])+int(n.ms.resvFor(dst)) >= n.m.cost.NICQueueCap
}

// reserveToward claims a NIC slot toward dst: directly for a same-shard
// destination (materializing it — a packet is headed there), or in this
// shard's span-local table for a cross-shard one (Arrive makes the real
// reservation on the destination shard; the barrier clears the table).
func (n *Node) reserveToward(dst int) {
	if n.m.shardIndex(dst) == n.sh.Index() {
		n.m.Node(dst).nic.reserve()
		return
	}
	n.ms.reserveCross(n.m.N(), dst)
}

// nextFlightKey returns the canonical delivery key for the next delivery
// copy launched by this node: (source node, per-source flight number).
func (n *Node) nextFlightKey() uint64 {
	n.flightSeq++
	return uint64(n.id)<<40 | (n.flightSeq & (1<<40 - 1))
}

// launch schedules a delivery of pkt arriving wire after the current
// instant and, if the network forged a copy (dup), that one's at dupWire:
// inline on the shared shard, or published into the destination
// shard's inbox when it lives on another (the arrival time is already
// final, so the flight can cross immediately). The destination node
// itself is never touched here: it materializes on its own shard.
func (n *Node) launch(pkt *Packet, wire sim.Duration, dup bool, dupWire sim.Duration) {
	at := n.sh.Now().Add(wire)
	key := n.nextFlightKey()
	si := n.m.shardIndex(pkt.Dst)
	if si == n.sh.Index() {
		n.sh.AtDelivery(at, key, n.m.newDelivery(n.ms, pkt))
	} else {
		n.m.eng.Shard(si).Inject(at, key, pkt)
	}
	if dup {
		n.launch(pkt, dupWire, false, 0)
	}
}

// Arrive implements sim.WindowHook: materialize one published
// cross-shard flight on its destination shard — claim the NIC slot the
// sender reserved in its span-local table and schedule the delivery event.
// Runs on the destination shard's goroutine, so the NIC, the delivery
// pool, and the heap are all shard-local here.
func (m *Machine) Arrive(sh *sim.Shard, at sim.Time, key uint64, payload any) {
	pkt := payload.(*Packet)
	dst := m.Node(pkt.Dst)
	dst.nic.forceReserve()
	sh.AtDelivery(at, key, m.newDelivery(dst.ms, pkt))
}

// TryInject attempts to send pkt from this node. On success it charges the
// sending process the CPU cost of the injection (including, for bulk
// transfers, the streaming time — the CM-5 scopy keeps the sending
// processor busy), schedules delivery, and returns true. If the
// destination's input buffer is full it charges nothing and returns false.
//
// p must be the running process, executing on this node's CPU.
func (n *Node) TryInject(p *sim.Proc, pkt *Packet) bool { return n.TryInjectThen(p, pkt, -1) }

// TryInjectThen is TryInject followed, when the packet was injected and then
// is not negative, by p.Charge(then). The kernel loop launches the flight
// and arms that charge in p's place (injecting), unless a core worker of
// this node is between the two already: then p takes the steps itself.
func (n *Node) TryInjectThen(p *sim.Proc, pkt *Packet, then sim.Duration) bool {
	if pkt.Src != n.id {
		panic(fmt.Sprintf("cm5: packet src %d injected from node %d", pkt.Src, n.id))
	}
	if pkt.Dst < 0 || pkt.Dst >= len(n.m.nodes) {
		panic(fmt.Sprintf("cm5: packet dst %d out of range", pkt.Dst))
	}
	dst := pkt.Dst
	f := n.m.fault
	now := n.sh.Now()
	ctr := n.attempts.At(dst)
	attempt := *ctr
	*ctr = attempt + 1
	var fr flightRNG
	var lossKind FaultKind
	lost := false
	if f != nil {
		// Decide loss before the full-buffer check: a send to a crashed
		// (never-polling, eventually full) node must still "succeed" from
		// the sender's view, or drain-while-sending would spin forever on
		// a NIC nobody will ever empty. Every fault draw for this flight
		// comes from its own counter-seeded stream.
		fr = newFlightRNG(uint64(f.plan.Seed), pkt.Src, pkt.Dst, attempt, 0)
		lossKind, lost = f.lossKind(&fr, now, pkt.Src, pkt.Dst)
	}
	if !lost && n.dstFull(dst) {
		n.ms.stats.FullRejects++
		if n.m.probe != nil {
			n.m.probe.Backpressure(now, pkt.Src, pkt.Dst)
		}
		return false
	}
	cost := &n.m.cost
	var busy sim.Duration
	switch pkt.Kind {
	case Small:
		if len(pkt.Payload) > cost.MaxPayload {
			panic(fmt.Sprintf("cm5: small packet payload %d exceeds max %d", len(pkt.Payload), cost.MaxPayload))
		}
		busy = cost.PacketSendOverhead
		n.ms.stats.SmallSent++
	case Bulk:
		busy = cost.BulkSetup + sim.Duration(len(pkt.Payload))*cost.BulkPerByte
		n.ms.stats.BulkSent++
	default:
		panic("cm5: unknown packet kind")
	}
	n.ms.stats.BytesSent += uint64(len(pkt.Payload))
	if lost {
		// The sender pays the injection cost — the packet left the node
		// and died in the network, indistinguishable from a successful
		// send until (if ever) a higher layer times out waiting.
		switch lossKind {
		case FaultBlackhole:
			n.ms.fstats.Blackholed++
			crashedAt := pkt.Src
			if !f.crashed[pkt.Src] {
				crashedAt = pkt.Dst
			}
			n.ms.faultNode(crashedAt).Blackholed++
		case FaultPartitionDrop:
			n.ms.fstats.PartitionDrops++
			n.ms.faultNode(pkt.Src).Dropped++
		default:
			n.ms.fstats.Dropped++
			n.ms.faultNode(pkt.Src).Dropped++
		}
		n.ms.recordFault(FaultEvent{T: now, Kind: lossKind, Src: pkt.Src, Dst: pkt.Dst})
		if n.m.probe != nil {
			n.m.probe.PacketLost(now, pkt.Src, pkt.Dst, lossKind)
		}
		n.ReleasePacket(pkt) // died in the network: nobody will deliver it
		p.ChargeSeq(busy, then)
		return true
	}
	n.reserveToward(dst)
	wire := cost.WireLatency
	if cost.WireJitter > 0 {
		// Deterministic jitter from the flight's own stream (seeded from
		// the engine seed, salted apart from the fault stream). Note that
		// jitter can reorder same-pair deliveries; the layers above do
		// not depend on FIFO ordering (RPC matches replies by call id),
		// but applications relying on it should keep jitter off.
		wr := newFlightRNG(uint64(n.m.eng.Seed()), pkt.Src, pkt.Dst, attempt, wireSalt)
		wire += sim.Duration(wr.int63n(int64(cost.WireJitter)))
	}
	dup := false
	var dupWire sim.Duration
	if f != nil {
		wire += f.extraLatency(&fr, n.ms, now, pkt.Src, pkt.Dst)
		if f.duplicate(&fr) && !n.dstFull(dst) {
			// The network forged a second copy; it takes its own slot and
			// its own (possibly different) path latency.
			dup = true
			if pkt.pooled {
				pkt.refs++ // the receiver must handle both copies before recycling
			}
			n.reserveToward(dst)
			dupWire = cost.WireLatency + f.extraLatency(&fr, n.ms, now, pkt.Src, pkt.Dst)
			n.ms.fstats.Duplicated++
			n.ms.faultNode(pkt.Src).Duplicated++
			n.ms.recordFault(FaultEvent{T: now, Kind: FaultDuplicate, Src: pkt.Src, Dst: pkt.Dst})
		}
	}
	// The sender's CPU is busy for the injection; the packet leaves at the
	// end of that window and lands WireLatency later. The flight is a
	// pooled typed event, not a closure: nothing on this path allocates.
	if n.m.probe != nil {
		n.m.probe.PacketSent(now, pkt, busy, wire, dup, dupWire)
	}
	if in := &n.inj; in.busy {
		p.Charge(busy)
		n.launch(pkt, wire, dup, dupWire)
		if then >= 0 {
			p.Charge(then)
		}
	} else {
		in.busy, in.pkt, in.wire, in.dup, in.dupWire, in.then = true, pkt, wire, dup, dupWire, then
		p.ChargeThen(busy, (*injecting)(n))
	}
	return true
}

// WaitPacket polls an empty input queue until it is not: exactly
//
//	for n.Pending() == 0 { p.Charge(cost.PollEmpty) }
//
// as one sim.Proc.StepWait that completeDelivery wakes, so polls that
// cannot succeed cost the host nothing. p must hold this node's CPU, which
// makes a second concurrent waiter a bug, not a queue.
func (n *Node) WaitPacket(p *sim.Proc) {
	if n.waiter != nil {
		panic(fmt.Sprintf("cm5: node %d has two processes in WaitPacket", n.id))
	}
	if n.nic.pending() > 0 {
		return
	}
	n.waiter = p
	p.StepWait(n.m.cost.PollEmpty)
	n.waiter = nil
}

// PollPacket checks the input queue, charging poll cost. If a packet is
// waiting it is ejected (charging the receive overhead) and returned;
// otherwise PollPacket returns nil. Dispatching the packet to a handler is
// the caller's job (package am).
func (n *Node) PollPacket(p *sim.Proc) *Packet { return n.PollPacketThen(p, -1) }

// PollPacketThen is PollPacket followed, when a packet was ejected and then
// is not negative, by p.Charge(then): the caller's fixed per-message cost,
// joined to the ejection in one sim.Proc.ChargeSeq.
func (n *Node) PollPacketThen(p *sim.Proc, then sim.Duration) *Packet {
	pkt := n.Eject()
	if pkt == nil {
		p.Charge(n.m.cost.PollEmpty)
	} else {
		p.ChargeSeq(n.m.cost.PacketRecvOverhead, then)
	}
	return pkt
}

// Eject removes the head of the input queue, if any, and charges nothing:
// the caller owes PacketRecvOverhead for it. Callable from kernel context.
func (n *Node) Eject() *Packet { return n.nic.pop() }
