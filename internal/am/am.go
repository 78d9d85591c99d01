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
// the delivered packet; Payload is the sender's marshaled data, valid for
// the handler's duration when it is small (see cm5.Packet).
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
// directly; the transport puts bytes on the wire with Endpoint.Injection
// and hands received messages up with Endpoint.Run. This is the seam the
// reliable-delivery layer plugs into; a nil transport (the default) keeps
// the direct path with zero overhead.
type Transport interface {
	// SendThen is Endpoint.SendThen: the transport may reframe pkt in
	// place before it injects.
	SendThen(p *sim.Proc, ep *Endpoint, pkt *cm5.Packet, k sim.Continuation) (sim.Next, sim.Duration)
}

// Universe bundles a machine, one thread scheduler per node, and the
// shared handler table. It is the program image of an SPMD run.
type Universe struct {
	m         *cm5.Machine
	eps       []*Endpoint
	handlers  []Handler
	names     []string
	atomic    []bool // per handler: registered with RegisterAtomic
	transport Transport
	out       []handoff // one per engine shard
}

// handoff is a message between a sender on the stack and the continuation
// it asks at once, or between a refused injection and the Drive of the
// process it ran for, which takes it at once. It never spans anything
// else on its shard, so the shard's nodes share one.
type handoff struct {
	pkt *cm5.Packet
	k   sim.Continuation
}

// The dispatcher's records (sim.LayerAM): a handler run on Node, by Proc.
// ID is the handler, N the nesting depth (1 = not nested inside another
// handler).
const (
	// RecHandlerStart: the dispatch overhead is charged and the body is
	// about to run.
	RecHandlerStart sim.Kind = iota
	// RecHandlerEnd: the body returned.
	RecHandlerEnd
)

// NewUniverse builds an n-node machine whose schedulers and Active
// Message endpoints materialize on first touch: Endpoint(i)/Scheduler(i)
// build node i's pair (and its idle process) the first time anything
// addresses it. An SPMD run still instantiates everything — Bootstrap
// touches every node — but a big-N universe where only k nodes run code
// pays endpoint, scheduler, and idle-process cost for k nodes, not n.
func NewUniverse(eng *sim.Engine, n int, cost cm5.CostModel) *Universe {
	u := &Universe{m: cm5.NewMachine(eng, n, cost)}
	u.eps = make([]*Endpoint, n)
	u.out = make([]handoff, eng.Shards())
	return u
}

// materializeNode builds node i's scheduler/endpoint pair. Like
// cm5.Machine.Node, call only from the owning shard's simulation context
// or with the shards quiescent (setup, barriers).
func (u *Universe) materializeNode(i int) {
	nd := u.m.Node(i)
	s := threads.NewScheduler(nd)
	ep := &Endpoint{u: u, node: nd, sched: s, out: &u.out[nd.Shard().Index()]}
	u.eps[i] = ep
	s.SetPoller(ep)
}

// Machine returns the underlying machine.
func (u *Universe) Machine() *cm5.Machine { return u.m }

// N returns the node count.
func (u *Universe) N() int { return u.m.N() }

// Scheduler returns node i's thread scheduler, materializing it on
// first touch.
func (u *Universe) Scheduler(i int) *threads.Scheduler { return u.Endpoint(i).sched }

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
	out   *handoff // the hand-off of the node's shard
	stats Stats
	depth int32 // nested handler executions on this node
	// polling marks a PollUntil inside WaitPacket since pollingSince;
	// still set after Run, the message never came (see SPMD).
	polling      bool
	pollingSince sim.Time
}

// Node returns the endpoint's node.
func (ep *Endpoint) Node() *cm5.Node { return ep.node }

// Packet assembles an outgoing packet, bulk or small, from the machine's
// pool. Ownership passes to the network on injection; the receiving
// endpoint recycles the struct after the handler runs (see Packet's
// ownership rules — a payload of cm5.MaxPayload bytes or less is copied
// into the packet, a longer buffer is handed off, never reused).
func (ep *Endpoint) Packet(dst int, h HandlerID, bulk bool, w [4]uint64, payload []byte) *cm5.Packet {
	if int(h) < 0 || int(h) >= len(ep.u.handlers) {
		panic(fmt.Sprintf("am: send to unregistered handler %d", h))
	}
	pkt := ep.node.AllocPacket()
	pkt.Src = ep.node.ID()
	pkt.Dst = dst
	pkt.Kind = cm5.Small
	if bulk {
		pkt.Kind = cm5.Bulk
	}
	pkt.Handler = int(h)
	pkt.W0, pkt.W1, pkt.W2, pkt.W3 = w[0], w[1], w[2], w[3]
	pkt.SetPayload(payload)
	return pkt
}

// Send transmits a small Active Message, draining incoming messages while
// the destination's buffer is full (the CMMD deadlock-avoidance protocol:
// the send routine polls the network before sending): SendThen, driven
// from c's stack.
func (ep *Endpoint) Send(c threads.Ctx, dst int, h HandlerID, w [4]uint64, payload []byte) {
	ep.send(c, ep.Packet(dst, h, false, w, payload))
}

// SendBulk is Send for a block transfer (the scopy path). The sending CPU
// is busy for the setup and streaming time.
func (ep *Endpoint) SendBulk(c threads.Ctx, dst int, h HandlerID, w [4]uint64, payload []byte) {
	ep.send(c, ep.Packet(dst, h, true, w, payload))
}

func (ep *Endpoint) send(c threads.Ctx, pkt *cm5.Packet) {
	ep.out.pkt = pkt
	ep.Drive(c, -1, (*sending)(ep))
}

// SendThen is the one send of a message, pkt (built with Packet), asked in
// kernel context for p, the process holding this node's CPU, through the
// installed transport: it injects the message and returns p's verdict, the
// injection's charge, at whose end the message leaves and k decides (nil:
// p runs). A message the destination's full buffer refuses goes back to
// p's stack, which must be in Drive: it drains and injects it there, then
// goes on with k.
func (ep *Endpoint) SendThen(p *sim.Proc, pkt *cm5.Packet, k sim.Continuation) (sim.Next, sim.Duration) {
	if t := ep.u.transport; t != nil {
		return t.SendThen(p, ep, pkt, k)
	}
	return ep.Injection(pkt, k).Continue(p)
}

// Injection is the send of pkt bypassing any installed transport, as the
// sim.Continuation to ask at once: by Drive, or by SendThen and a
// transport's SendThen (Continue). Transports move their framed messages
// with it, and so do their retransmissions and acknowledgments.
func (ep *Endpoint) Injection(pkt *cm5.Packet, k sim.Continuation) sim.Continuation {
	*ep.out = handoff{pkt, k}
	return (*injecting)(ep)
}

// sending and injecting are an Endpoint seen as the sim.Continuation that
// takes the message its caller handed over and sends it, or injects it as
// it is.
type (
	sending   Endpoint
	injecting Endpoint
)

func (s *sending) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	ep := (*Endpoint)(s)
	h := ep.out
	pkt := h.pkt
	h.pkt = nil
	return ep.SendThen(p, pkt, nil)
}

func (i *injecting) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	ep := (*Endpoint)(i)
	h := ep.out
	busy, in, ok := ep.node.Inject(h.pkt, h.k)
	if !ok {
		return sim.NextRun, 0 // the refused message stays for Drive
	}
	if h.pkt.Kind == cm5.Bulk {
		ep.stats.BulkSends++
	} else {
		ep.stats.Sends++
	}
	*h = handoff{}
	p.Pass(in)
	return sim.NextCharge, busy
}

// Drive runs k on c's stack, after a charge of d unless d is negative, as
// sim.Proc.ChargeThen: the one way to run a chain with a send in it. A send
// the chain's injection finds refused is retried here, draining our own
// input meanwhile — handle one packet if present, otherwise burn a poll —
// until the destination has polled and there is room; the chain then goes
// on from the injection.
func (ep *Endpoint) Drive(c threads.Ctx, d sim.Duration, k sim.Continuation) {
	if d < 0 {
		c.P.Then(k)
	} else {
		c.P.ChargeThen(d, k)
	}
	for h := ep.out; h.pkt != nil; {
		refused := *h
		*h = handoff{}
		ep.stats.DrainSpins++
		ep.Poll(c)
		c.P.Then(ep.Injection(refused.pkt, refused.k))
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
// reports the node as polling — except under a sim.Sink, where the wait
// really steps and never ends. A loop whose body does more than
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
// and recycles the struct (a bulk payload buffer is handed off, not reused).
func (ep *Endpoint) Dispatch(c threads.Ctx, pkt *cm5.Packet) {
	ep.Run(c, pkt)
	ep.node.ReleasePacket(pkt)
}

// Run runs pkt's handler inline, HandlerDispatch already charged: joined to
// the ejection by Poll, to an ack's injection by a transport, and hands a transport's de-framed inner message up, the
// packet staying the transport's to recycle. The handler context is derived
// from the polling context but has no thread: handlers are not schedulable.
func (ep *Endpoint) Run(c threads.Ctx, pkt *cm5.Packet) {
	h := ep.u.handlers[pkt.Handler]
	hc := threads.Ctx{P: c.P, T: nil, S: ep.sched}
	ep.depth++
	depth := int(ep.depth)
	ep.stats.MaxDepth = max(ep.stats.MaxDepth, depth)
	ep.stats.HandlersRun++
	start := c.P.Now()
	k := c.P.Shard().Sink()
	if k != nil {
		k.Observe(sim.Record{T: start, Layer: sim.LayerAM, Kind: RecHandlerStart, Node: ep.node.ID(), Proc: c.P, ID: uint64(pkt.Handler), N: depth})
	}
	h(hc, pkt)
	// Nested dispatches (drains inside sends) double-count into their
	// enclosing handler's window; MaxDepth reports when that happens.
	ep.stats.HandlerTime += c.P.Now().Sub(start)
	if k != nil {
		k.Observe(sim.Record{T: c.P.Now(), Layer: sim.LayerAM, Kind: RecHandlerEnd, Node: ep.node.ID(), Proc: c.P, ID: uint64(pkt.Handler), N: depth})
	}
	ep.depth--
}
