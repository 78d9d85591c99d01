package am

import (
	"fmt"

	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// HandlerID names a registered handler. IDs are machine-wide: like an SPMD
// program image, every node shares one handler table.
type HandlerID int

// Handler is an Active Message handler. It runs inline on the polling
// context c (c.T == nil): it must not block, and should be short. pkt is
// the delivered packet; Payload is the sender's marshaled data.
type Handler func(c threads.Ctx, pkt *cm5.Packet)

// Stats counts per-universe Active Message activity.
type Stats struct {
	HandlersRun uint64
	Sends       uint64
	BulkSends   uint64
	DrainSpins  uint64       // retries while the destination buffer was full
	MaxDepth    int          // deepest nested handler execution seen
	HandlerTime sim.Duration // total virtual CPU time spent inside handlers
}

// Transport intercepts outgoing Active Messages. When one is installed on
// a Universe every Endpoint send routes through it instead of injecting
// directly; the transport eventually moves bytes with SendRaw/TrySendRaw
// and hands received messages back with Endpoint.Deliver. This is the seam
// the reliable-delivery layer plugs into; a nil transport (the default)
// keeps the original direct path with zero overhead.
type Transport interface {
	// Send must eventually inject the message (it may drain, buffer, and
	// retransmit along the way).
	Send(c threads.Ctx, ep *Endpoint, dst int, h HandlerID, w [4]uint64, payload []byte, bulk bool)
	// TrySend attempts a non-blocking send and reports whether the message
	// was accepted for (eventual) delivery.
	TrySend(c threads.Ctx, ep *Endpoint, dst int, h HandlerID, w [4]uint64, payload []byte, bulk bool) bool
}

// Universe bundles a machine, one thread scheduler per node, and the
// shared handler table. It is the program image of an SPMD run.
type Universe struct {
	m         *cm5.Machine
	scheds    []*threads.Scheduler
	eps       []*Endpoint
	handlers  []Handler
	names     []string
	atomic    []bool // per handler: registered with RegisterAtomic
	transport Transport
	probe     Probe
}

// Probe observes handler dispatch. Probes are pure observers — they must
// not schedule events or charge virtual time; the hooks are skipped when
// no probe is installed, keeping the disabled path allocation-free.
type Probe interface {
	// HandlerStart fires after the dispatch overhead is charged, just
	// before the handler body runs; depth is the nesting level (1 = not
	// nested inside another handler).
	HandlerStart(t sim.Time, node int, h HandlerID, depth int)
	// HandlerEnd fires when the handler body returns.
	HandlerEnd(t sim.Time, node int, h HandlerID, depth int)
}

// SetProbe installs a dispatch probe; pass nil to disable.
func (u *Universe) SetProbe(p Probe) { u.probe = p }

// NewUniverse builds an n-node machine whose schedulers and Active
// Message endpoints materialize on first touch: Endpoint(i)/Scheduler(i)
// build node i's pair (and its idle process) the first time anything
// addresses it. An SPMD run still instantiates everything — Bootstrap
// touches every node — but a big-N universe where only k nodes run code
// pays endpoint, scheduler, and idle-process cost for k nodes, not n.
func NewUniverse(eng *sim.Engine, n int, cost cm5.CostModel) *Universe {
	u := &Universe{m: cm5.NewMachine(eng, n, cost)}
	u.scheds = make([]*threads.Scheduler, n)
	u.eps = make([]*Endpoint, n)
	return u
}

// materializeNode builds node i's scheduler/endpoint pair. Like
// cm5.Machine.Node, call only from the owning shard's simulation context
// or with the shards quiescent (setup, barriers).
func (u *Universe) materializeNode(i int) {
	s := threads.NewScheduler(u.m.Node(i))
	u.scheds[i] = s
	ep := &Endpoint{u: u, node: u.m.Node(i), sched: s}
	u.eps[i] = ep
	s.SetPoller(ep)
}

// Machine returns the underlying machine.
func (u *Universe) Machine() *cm5.Machine { return u.m }

// N returns the node count.
func (u *Universe) N() int { return u.m.N() }

// Scheduler returns node i's thread scheduler, materializing it on
// first touch.
func (u *Universe) Scheduler(i int) *threads.Scheduler {
	if u.scheds[i] == nil {
		u.materializeNode(i)
	}
	return u.scheds[i]
}

// Endpoint returns node i's Active Message endpoint, materializing it on
// first touch.
func (u *Universe) Endpoint(i int) *Endpoint {
	if u.eps[i] == nil {
		u.materializeNode(i)
	}
	return u.eps[i]
}

// Stats returns a snapshot of the universe's AM counters, summed across
// materialized endpoints (MaxDepth is max-merged).
func (u *Universe) Stats() Stats {
	var out Stats
	for _, ep := range u.eps {
		if ep == nil {
			continue
		}
		s := &ep.stats
		out.HandlersRun += s.HandlersRun
		out.Sends += s.Sends
		out.BulkSends += s.BulkSends
		out.DrainSpins += s.DrainSpins
		out.HandlerTime += s.HandlerTime
		if s.MaxDepth > out.MaxDepth {
			out.MaxDepth = s.MaxDepth
		}
	}
	return out
}

// SetTransport installs (or, with nil, removes) a send-path interceptor.
// Like Register, call it before the simulation starts.
func (u *Universe) SetTransport(t Transport) { u.transport = t }

// Register adds a handler to the shared table and returns its ID. All
// registration must happen before the simulation starts, as it would on a
// real SPMD machine where the handler table is the program text.
func (u *Universe) Register(name string, h Handler) HandlerID {
	u.handlers = append(u.handlers, h)
	u.names = append(u.names, name)
	u.atomic = append(u.atomic, false)
	return HandlerID(len(u.handlers) - 1)
}

// RegisterAtomic is Register for a handler that only does bookkeeping — it
// never charges, sends or blocks — so a sleeping scheduler need not be
// switched to for it: the kernel loop runs it (Eject), where a charge
// panics as "not the running process".
func (u *Universe) RegisterAtomic(name string, h Handler) HandlerID {
	id := u.Register(name, h)
	u.atomic[id] = true
	return id
}

// HandlerName returns the registration name of id, for diagnostics.
func (u *Universe) HandlerName(id HandlerID) string { return u.names[id] }

// Endpoint is a node's Active Message interface. Its counters are only
// ever touched from code running on its node, so they stay shard-local
// under a sharded engine.
type Endpoint struct {
	u     *Universe
	node  *cm5.Node
	sched *threads.Scheduler
	depth int // nested handler executions on this node
	stats Stats
	// polling marks a PollUntil inside WaitPacket since pollingSince;
	// still set after Run, the message never came (see SPMD).
	polling      bool
	pollingSince sim.Time
}

// Node returns the endpoint's node.
func (ep *Endpoint) Node() *cm5.Node { return ep.node }

// packet assembles an outgoing packet from the machine's pool. Ownership
// passes to the network on successful injection; the receiving endpoint
// recycles the struct after the handler runs (see Packet's ownership
// rules — the payload buffer itself is handed off, never reused).
func (ep *Endpoint) packet(dst int, h HandlerID, kind cm5.PacketKind, w [4]uint64, payload []byte) *cm5.Packet {
	if int(h) < 0 || int(h) >= len(ep.u.handlers) {
		panic(fmt.Sprintf("am: send to unregistered handler %d", h))
	}
	pkt := ep.node.AllocPacket()
	pkt.Src = ep.node.ID()
	pkt.Dst = dst
	pkt.Kind = kind
	pkt.Handler = int(h)
	pkt.W0, pkt.W1, pkt.W2, pkt.W3 = w[0], w[1], w[2], w[3]
	pkt.Payload = payload
	return pkt
}

// TrySend attempts a non-blocking send of a small Active Message and
// reports whether it was injected. Failure means the destination's input
// buffer is full — the "network busy" condition that makes an optimistic
// execution abort.
func (ep *Endpoint) TrySend(c threads.Ctx, dst int, h HandlerID, w [4]uint64, payload []byte) bool {
	if t := ep.u.transport; t != nil {
		return t.TrySend(c, ep, dst, h, w, payload, false)
	}
	return ep.TrySendRaw(c, dst, h, w, payload, false)
}

// Send transmits a small Active Message, draining incoming messages while
// the destination's buffer is full (the CMMD deadlock-avoidance protocol:
// the send routine polls the network before sending).
func (ep *Endpoint) Send(c threads.Ctx, dst int, h HandlerID, w [4]uint64, payload []byte) {
	if t := ep.u.transport; t != nil {
		t.Send(c, ep, dst, h, w, payload, false)
		return
	}
	ep.SendRaw(c, dst, h, w, payload, false)
}

// SendBulk transmits a block transfer (the scopy path), draining while the
// destination's buffer is full. The sending CPU is busy for the setup and
// streaming time.
func (ep *Endpoint) SendBulk(c threads.Ctx, dst int, h HandlerID, w [4]uint64, payload []byte) {
	if t := ep.u.transport; t != nil {
		t.Send(c, ep, dst, h, w, payload, true)
		return
	}
	ep.SendRaw(c, dst, h, w, payload, true)
}

// TrySendBulk is the non-blocking bulk variant.
func (ep *Endpoint) TrySendBulk(c threads.Ctx, dst int, h HandlerID, w [4]uint64, payload []byte) bool {
	if t := ep.u.transport; t != nil {
		return t.TrySend(c, ep, dst, h, w, payload, true)
	}
	return ep.TrySendRaw(c, dst, h, w, payload, true)
}

// SendRaw transmits directly on the wire, bypassing any installed
// transport: the draining-send path of the original Endpoint.Send /
// SendBulk. Transports call this to move their framed messages (and
// retransmissions) without recursing into themselves.
func (ep *Endpoint) SendRaw(c threads.Ctx, dst int, h HandlerID, w [4]uint64, payload []byte, bulk bool) {
	ep.SendRawThen(c, dst, h, w, payload, bulk, -1)
}

// SendRawThen is SendRaw followed, unless then is negative, by
// c.P.Charge(then), joined to the injection (cm5.Node.TryInjectThen).
func (ep *Endpoint) SendRawThen(c threads.Ctx, dst int, h HandlerID, w [4]uint64, payload []byte, bulk bool, then sim.Duration) {
	kind := cm5.Small
	if bulk {
		kind = cm5.Bulk
	}
	ep.sendDraining(c, ep.packet(dst, h, kind, w, payload), then)
	if bulk {
		ep.stats.BulkSends++
	} else {
		ep.stats.Sends++
	}
}

// TrySendRaw is the non-blocking direct-wire send.
func (ep *Endpoint) TrySendRaw(c threads.Ctx, dst int, h HandlerID, w [4]uint64, payload []byte, bulk bool) bool {
	kind := cm5.Small
	if bulk {
		kind = cm5.Bulk
	}
	pkt := ep.packet(dst, h, kind, w, payload)
	if ep.node.TryInject(c.P, pkt) {
		if bulk {
			ep.stats.BulkSends++
		} else {
			ep.stats.Sends++
		}
		return true
	}
	ep.node.ReleasePacket(pkt) // never entered the network
	return false
}

func (ep *Endpoint) sendDraining(c threads.Ctx, pkt *cm5.Packet, then sim.Duration) {
	for !ep.node.TryInjectThen(c.P, pkt, then) {
		ep.stats.DrainSpins++
		// Drain our own input while waiting for room: handle one packet
		// if present, otherwise burn a poll and retry. Time advances, the
		// destination eventually polls, and space appears.
		ep.Poll(c)
	}
}

// Poll services at most one incoming message, running its handler inline
// on this context, and reports whether one was handled. Applications and
// the thread scheduler's idle loop call this; so does Send while draining.
func (ep *Endpoint) Poll(c threads.Ctx) bool {
	pkt := ep.node.PollPacketThen(c.P, ep.u.m.Cost().HandlerDispatch)
	if pkt == nil {
		return false
	}
	ep.Dispatch(c, pkt)
	return true
}

// PollUntil is the hand-coded wait for a message, CMAM_wait: spin on a
// flag that a handler raises. It is exactly
//
//	for !done() { Poll(c) }
//
// for a done that only handlers dispatched by these polls can change (the
// caller holds the node's CPU, so nothing else on the node runs). Every
// poll of an empty queue is then a foregone conclusion, and a stretch of
// them is one cm5.Node.WaitPacket: same virtual time and counters, no host
// work. A message that never arrives leaves the engine quiescent and SPMD
// reports the node as polling — except under a sim tracer or probe, where
// the wait really steps and never ends. A loop whose body does more than
// poll (poll-and-yield: the ready queue is a second wake source) stays a
// loop.
func (ep *Endpoint) PollUntil(c threads.Ctx, done func() bool) {
	for !done() {
		ep.polling, ep.pollingSince = true, c.P.Now()
		ep.node.WaitPacket(c.P)
		ep.polling = false
		ep.Poll(c)
	}
}

// PollAll services incoming messages until the input queue is empty,
// returning the number handled.
func (ep *Endpoint) PollAll(c threads.Ctx) int {
	n := 0
	for ep.node.Pending() > 0 {
		if ep.Poll(c) {
			n++
		}
	}
	return n
}

// PollOnce implements threads.Poller for the scheduler idle loop.
func (ep *Endpoint) PollOnce(c threads.Ctx) bool { return ep.Poll(c) }

// Eject and Dispatch are PollOnce in steps, for a scheduler that takes the
// first in kernel context: Eject pops the head of the input queue, for
// which the caller owes the ejection and the dispatch charge, and says
// whether its handler is atomic, so that Dispatch may stay there too.
func (ep *Endpoint) Eject() (pkt *cm5.Packet, atomic bool) {
	pkt = ep.node.Eject()
	return pkt, ep.u.atomic[pkt.Handler]
}

// Dispatch runs the handler of a packet off the wire, both charges paid,
// and recycles the struct (the payload buffer is handed off, not reused).
// Packets a transport hands up via Deliver are the transport's to manage.
func (ep *Endpoint) Dispatch(c threads.Ctx, pkt *cm5.Packet) {
	ep.Run(c, pkt)
	ep.node.ReleasePacket(pkt)
}

// Deliver runs pkt's handler inline on this endpoint, exactly as if the
// packet had just been polled off the wire. Transports use it to hand a
// de-framed inner message up to the application layer.
func (ep *Endpoint) Deliver(c threads.Ctx, pkt *cm5.Packet) {
	c.P.Charge(ep.u.m.Cost().HandlerDispatch)
	ep.Run(c, pkt)
}

// Run runs pkt's handler inline, HandlerDispatch already charged: joined to
// the ejection by Poll, to an ack's injection by a transport that used
// SendRawThen. The handler context is derived from the polling context but
// has no thread: handlers are not schedulable.
func (ep *Endpoint) Run(c threads.Ctx, pkt *cm5.Packet) {
	h := ep.u.handlers[pkt.Handler]
	hc := threads.Ctx{P: c.P, T: nil, S: ep.sched}
	ep.depth++
	if ep.depth > ep.stats.MaxDepth {
		ep.stats.MaxDepth = ep.depth
	}
	ep.stats.HandlersRun++
	start := c.P.Now()
	if ep.u.probe != nil {
		ep.u.probe.HandlerStart(start, ep.node.ID(), HandlerID(pkt.Handler), ep.depth)
	}
	h(hc, pkt)
	// Nested dispatches (drains inside sends) double-count into their
	// enclosing handler's window; MaxDepth reports when that happens.
	ep.stats.HandlerTime += c.P.Now().Sub(start)
	if ep.u.probe != nil {
		ep.u.probe.HandlerEnd(c.P.Now(), ep.node.ID(), HandlerID(pkt.Handler), ep.depth)
	}
	ep.depth--
}
