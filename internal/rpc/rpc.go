package rpc

import (
	"errors"
	"fmt"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/threads"
)

// ErrDeadline is returned by CallWithDeadline when no reply arrived in
// time — the server may be slow, partitioned, or crashed.
var ErrDeadline = errors.New("rpc: call deadline exceeded")

// Mode selects the dispatch discipline of a Runtime.
type Mode uint8

const (
	// ORPC runs each incoming call as an Optimistic Active Message.
	ORPC Mode = iota
	// TRPC creates a thread for each incoming call.
	TRPC
)

func (m Mode) String() string {
	switch m {
	case ORPC:
		return "ORPC"
	case TRPC:
		return "TRPC"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Options configures a Runtime.
type Options struct {
	Mode Mode
	// OAM configures the optimistic dispatcher (ORPC mode only).
	OAM oam.Options
	// BackOfQueue schedules incoming call threads at the back of the
	// ready queue instead of the front. The paper measured both and
	// found front always better; front is the default (false).
	BackOfQueue bool
}

// Runtime is the per-universe RPC engine.
type Runtime struct {
	u      *am.Universe
	opts   Options
	d      *oam.Dispatcher // dispatcher for synchronous procedures
	dAsync *oam.Dispatcher // async procedures never nack; see doc.go
	replyH am.HandlerID
	nackH  am.HandlerID
	nodes  []*nodeState // made at each node's first call
	procs  []*Proc
}

// The client side's records (sim.LayerRPC), all about Node. A call's
// records carry the procedure's Name and the calling Proc.
const (
	// RecCallStart: a client begins a synchronous call (before the first
	// request is injected) or fires an asynchronous one.
	RecCallStart sim.Kind = iota
	// RecCallEnd: the call resolved, after N nack retries.
	RecCallEnd
	// RecCallTimeout: the call's deadline expired, after N nack retries.
	RecCallTimeout
	// RecStale: a reply or nack arrived for a call no longer waiting
	// (deadline abandonment or duplicate delivery).
	RecStale
)

// observe emits a record of kind k about a call of p from c, if its shard
// has a sink.
func (p *Proc) observe(c threads.Ctx, node int, k sim.Kind, retries uint64) {
	if sink := c.P.Shard().Sink(); sink != nil {
		sink.Observe(sim.Record{T: c.P.Now(), Layer: sim.LayerRPC, Kind: k, Node: node, Proc: c.P, Name: p.name, N: int(retries)})
	}
}

// nodeState is the client-side call table of one node. It is only ever
// touched from code running on that node, so it needs no locking under a
// sharded engine, not even to make it (Runtime.node).
type nodeState struct {
	seq   uint64  // attempts started; the high part of the next call id
	slots []*call // every call record this node has made, by slot - 1
	free  *call   // idle records, most recently released first
	stale uint64  // replies/nacks for calls no longer waiting
	first call    // slot 0: a node with one call at a time needs no other record
}

// call is one attempt of a call: its client stub in progress, then, if
// synchronous, the outstanding attempt. Records are recycled on their
// node's free list, each is its own deadline timer's action (Run), and
// each holds its request and reply by value, so steady-state calls
// allocate nothing here.
//
// A call id is (attempt sequence number << slotBits | slot): the slot
// finds the record without a table lookup, and the sequence number tells
// a reply to the attempt in flight from one to an earlier tenant of the
// record, so a late reply, nack or duplicate never resolves a call it was
// not sent for, however quickly the record was reused.
type call struct {
	id    uint64 // the attempt in flight; its slot alone until begun, and while idle
	flag  threads.Flag
	msg   cm5.Record // the request until the stub sends it, then the reply
	timer sim.Timer
	next  *call // free-list link
	// The stub, for Continue: whose, on which node's CPU, to whom, by when
	// (zero: no deadline).
	proc     *Proc
	s        *threads.Scheduler
	deadline sim.Time
	server   int32
	nacked   bool
	timedOut bool
}

const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
)

// node returns node i's call table, made at its first use.
func (rt *Runtime) node(i int) *nodeState {
	ns := rt.nodes[i]
	if ns == nil {
		ns = &nodeState{}
		ns.free = &ns.first
		rt.nodes[i] = ns
	}
	return ns
}

// take takes an idle call record, or carves one on c's shard, for pr's
// stub: c calls server with arg (nil: an empty record).
func (ns *nodeState) take(pr *Proc, c threads.Ctx, server int, arg *Enc) *call {
	cl := ns.free
	if cl != nil {
		ns.free = cl.next
		cl.next = nil
	} else {
		if len(ns.slots) >= slotMask {
			panic("rpc: too many concurrent calls from one node")
		}
		cl = sim.Carve[call](c.P.Shard())
		cl.id = uint64(len(ns.slots)) + 1
		ns.slots = append(ns.slots, cl)
	}
	cl.proc, cl.s, cl.server = pr, c.S, int32(server)
	if arg != nil {
		cl.msg = arg.rec
	}
	return cl
}

// begin gives cl a fresh id.
func (ns *nodeState) begin(cl *call) {
	ns.seq++
	cl.id = ns.seq<<slotBits | cl.id&slotMask
}

// Continue is the client stub in kernel context, asked in the calling
// process's place from the end of the stub's charge: it begins a
// synchronous attempt, arms its deadline and sends the request. Once that
// has left — the injection's charge — the synchronous call waits for its
// reply (replyWait); an asynchronous one is over. It is asked once: a
// request that meets a full buffer is retried by the caller's
// am.Endpoint.Drive, which goes on from the injection.
func (cl *call) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	pr, s := cl.proc, cl.s
	me := s.Node().ID()
	var id uint64
	var k sim.Continuation
	if !pr.async {
		pr.rt.node(me).begin(cl)
		if cl.deadline > 0 {
			cl.timer = s.Node().Shard().AtActionTimer(cl.deadline, cl)
		}
		id, k = cl.id, (*replyWait)(cl)
	}
	ep := pr.rt.u.Endpoint(me)
	arg := cl.msg.Bytes()
	pkt := ep.Packet(int(cl.server), pr.h, len(arg) > cm5.MaxPayload, [4]uint64{id}, arg)
	cl.msg = cm5.Record{}
	return ep.SendThen(p, pkt, k)
}

// replyWait is a call seen as the sim.Continuation that waits for its reply.
type replyWait call

func (w *replyWait) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	return w.flag.Await(p, w.s)
}

// end recycles cl once its caller has read the outcome. Cancelling the
// deadline here is what keeps a recycled record's timer from firing.
func (ns *nodeState) end(cl *call) {
	cl.timer.Cancel() // no-op on the zero Timer
	*cl = call{id: cl.id & slotMask, next: ns.free}
	ns.free = cl
}

// waiting returns the call id was issued for if it still waits for its
// outcome, else nil: the caller gave up (deadline), already has an answer,
// or moved on long ago and the record serves another call. No call is
// issued the id of a slot alone.
func (ns *nodeState) waiting(id uint64) *call {
	cl := &ns.first
	if slot := id & slotMask; id == slot || slot > uint64(len(ns.slots)) {
		return nil
	} else if slot > 0 {
		cl = ns.slots[slot-1]
	}
	if cl.id == id && !cl.flag.IsSet() {
		return cl
	}
	return nil
}

// Run is the deadline timer's action: the call gives up unless answered.
func (cl *call) Run() {
	if !cl.flag.IsSet() {
		cl.timedOut = true
		cl.flag.Set()
	}
}

// New builds an RPC runtime over u. Define all procedures before the
// simulation starts.
func New(u *am.Universe, opts Options) *Runtime {
	rt := &Runtime{u: u, opts: opts}
	rt.nodes = make([]*nodeState, u.N())
	rt.replyH = u.Register("rpc/reply", rt.handleReply)
	rt.nackH = u.Register("rpc/nack", rt.handleNack)
	return rt
}

// Universe returns the universe the runtime is bound to.
func (rt *Runtime) Universe() *am.Universe { return rt.u }

// Dispatcher exposes the OAM dispatcher (for statistics).
func (rt *Runtime) Dispatcher() *oam.Dispatcher { return rt.dispatcher(false) }

// AsyncDispatcher exposes the dispatcher used by asynchronous procedures.
func (rt *Runtime) AsyncDispatcher() *oam.Dispatcher { return rt.dispatcher(true) }

// dispatcher returns the dispatcher for synchronous or asynchronous
// procedures, made on first use. Define sizes the one its procedure runs
// on (TRPC runs every procedure on the synchronous one); the other stays
// bare, its counters zero, with no per-node tables.
func (rt *Runtime) dispatcher(async bool) *oam.Dispatcher {
	d, opts := &rt.d, rt.opts.OAM
	if async {
		d = &rt.dAsync
		if opts.Strategy == oam.Nack {
			opts.Strategy = oam.Rerun
		}
	}
	if *d == nil {
		*d = oam.NewDispatcher(opts)
	}
	return *d
}

func (rt *Runtime) handleReply(c threads.Ctx, pkt *cm5.Packet) {
	if cl := rt.resolving(c, pkt); cl != nil {
		cl.msg.Set(pkt.Payload)
		cl.flag.Set()
	}
}

func (rt *Runtime) handleNack(c threads.Ctx, pkt *cm5.Packet) {
	if cl := rt.resolving(c, pkt); cl != nil {
		cl.nacked = true
		cl.flag.Set()
	}
}

// resolving returns the waiting call a reply or nack packet answers, or
// counts the packet stale and returns nil. The caller gave up (deadline)
// or already completed: on a faulty network late replies are normal, not
// a protocol violation.
func (rt *Runtime) resolving(c threads.Ctx, pkt *cm5.Packet) *call {
	ns := rt.node(pkt.Dst)
	cl := ns.waiting(pkt.W0)
	if cl == nil {
		ns.stale++
		if sink := c.P.Shard().Sink(); sink != nil {
			sink.Observe(sim.Record{T: c.P.Now(), Layer: sim.LayerRPC, Kind: RecStale, Node: pkt.Dst})
		}
	}
	return cl
}

// StaleReplies counts replies and nacks that arrived for calls no longer
// waiting — abandoned by a deadline, or already resolved. Always zero on
// a fault-free network.
func (rt *Runtime) StaleReplies() uint64 {
	var n uint64
	for _, ns := range rt.nodes {
		if ns != nil {
			n += ns.stale
		}
	}
	return n
}

// ProcStats are the per-procedure counters the termination routine of the
// paper's generated stubs prints; Tables 2 and 3 are built from them.
type ProcStats struct {
	Calls     uint64 // client-side invocations (including nack retries)
	OAMs      uint64 // server-side optimistic attempts
	Successes uint64 // attempts that completed inside the handler
	Promoted  uint64 // attempts promoted to a thread
	Nacks     uint64 // attempts refused with a negative acknowledgment
	Threads   uint64 // TRPC-mode thread creations
	Retries   uint64 // client-side re-sends after a nack
	Timeouts  uint64 // CallWithDeadline expirations
	GiveUps   uint64 // CallIdempotent exhaustions: every attempt timed out
}

// Impl is the server-side body of a remote procedure. It runs against e
// (optimistically or as a thread, depending on mode and luck), with
// caller identifying the client node. arg is the marshaled argument
// record, valid until the execution ends (a small one lives in e); the
// returned record is marshaled results (ignored for asynchronous
// procedures), which Result keeps in e.
type Impl func(e *oam.Env, caller int, arg []byte) []byte

// Result hands enc to e as its execution's result record and returns the
// record, for an Impl to return: a small one then rides in e, not on the
// heap.
func Result(e *oam.Env, enc *Enc) []byte { return e.Result(&enc.rec) }

// Proc is a defined remote procedure. Counters are kept per node (the
// node whose context increments them) so client and server sides never
// contend under a sharded engine; Stats sums them.
type Proc struct {
	rt    *Runtime
	name  string
	h     am.HandlerID
	async bool
	impl  Impl
	// body and settle are bound once, so serving builds no closure: the
	// call's caller, id and argument ride on the oam.Frame.
	body   func(*oam.Env)
	settle func(threads.Ctx, oam.Frame, oam.Outcome, oam.Reason)
	stats  []ProcStats
	// class is the procedure's row in the compatibility matrix installed
	// by SetCompat, or -1 (incompatible with everything) when unset.
	class int
	// keyFn extracts the disjointness key from a marshaled argument frame
	// for disjoint(key) compatibility clauses; nil when the procedure has
	// no key.
	keyFn func(arg []byte) uint64
}

// Define registers a synchronous remote procedure.
func (rt *Runtime) Define(name string, impl Impl) *Proc {
	return rt.define(name, false, impl)
}

// DefineAsync registers an asynchronous (fire-and-forget) procedure.
func (rt *Runtime) DefineAsync(name string, impl Impl) *Proc {
	return rt.define(name, true, impl)
}

func (rt *Runtime) define(name string, async bool, impl Impl) *Proc {
	p := &Proc{rt: rt, name: name, async: async, impl: impl,
		stats: make([]ProcStats, rt.u.N()), class: -1}
	p.body, p.settle = p.run, p.settled
	p.h = rt.u.Register("rpc/"+name, p.serve)
	rt.procs = append(rt.procs, p)
	rt.dispatcher(async && rt.opts.Mode != TRPC).SetNodes(rt.u.N())
	return p
}

// CompatMethod names one procedure's row in a compatibility matrix and,
// optionally, its disjointness-key extractor.
type CompatMethod struct {
	Name string
	Key  func(arg []byte) uint64
}

// CompatSpec ties a service's compatibility matrix to its procedures.
// The generated stubs' CompatSpec() compiles one from the IDL's
// compatible clauses.
type CompatSpec struct {
	Table   *oam.CompatTable
	Methods []CompatMethod
}

// SetCompat installs a compatibility spec: each named procedure gets its
// matrix class (its index in spec.Methods) and key extractor, and the
// dispatchers consult spec.Table for multiactive admission. Call it after
// the Define calls, before the simulation starts.
func (rt *Runtime) SetCompat(spec CompatSpec) {
	rt.Dispatcher().SetCompat(spec.Table)
	rt.AsyncDispatcher().SetCompat(spec.Table)
	for i := range spec.Methods {
		m := &spec.Methods[i]
		for _, p := range rt.procs {
			if p.name == m.Name {
				p.class = i
				p.keyFn = m.Key
			}
		}
	}
}

// Stats returns a snapshot of the per-procedure counters (the paper's
// generated termination routine prints these), summed across nodes.
func (p *Proc) Stats() ProcStats {
	var out ProcStats
	for i := range p.stats {
		s := &p.stats[i]
		out.Calls += s.Calls
		out.OAMs += s.OAMs
		out.Successes += s.Successes
		out.Promoted += s.Promoted
		out.Nacks += s.Nacks
		out.Threads += s.Threads
		out.Retries += s.Retries
		out.Timeouts += s.Timeouts
		out.GiveUps += s.GiveUps
	}
	return out
}

// serve is the request handler: it runs on the polling context of the
// server node and dispatches the call according to the runtime mode.
func (p *Proc) serve(c threads.Ctx, pkt *cm5.Packet) {
	rt := p.rt
	c.P.Charge(rt.u.Machine().Cost().StubServer)
	ep := rt.u.Endpoint(pkt.Dst)
	f := oam.Frame{Caller: pkt.Src, ID: pkt.W0, Arg: pkt.Payload}

	st := &p.stats[pkt.Dst]
	if rt.opts.Mode == TRPC {
		st.Threads++
		rt.d.RunThread(c, ep, threads.Name{Prefix: "rpc/", Base: p.name}, !rt.opts.BackOfQueue, p.body, f)
		return
	}

	d := rt.d
	if p.async {
		d = rt.dAsync
	}
	st.OAMs++
	if !p.async && rt.opts.OAM.Cores > 1 {
		// Multiactive dispatch: the execution may be queued behind
		// incompatible peers and settle after serve returns, so the
		// dispatcher reports the outcome through a callback (still on
		// this node).
		var key uint64
		hasKey := p.keyFn != nil
		if hasKey {
			key = p.keyFn(f.Arg)
		}
		d.RunMulti(c, ep, p.name, p.class, key, hasKey, p.body, f, p.settle)
		return
	}
	outcome, reason := d.RunFrame(c, ep, p.name, p.body, f)
	p.settled(c, f, outcome, reason)
}

// run is the one body every call of p executes, optimistically or as a
// thread: the implementation, then the reply.
func (p *Proc) run(e *oam.Env) {
	f := e.Frame
	res := p.impl(e, f.Caller, f.Arg)
	if !p.async {
		p.sendReply(e, f.Caller, f.ID, res)
	}
}

// settled accounts for one optimistic dispatch's outcome on the server
// node's context c and, when the dispatcher asked for it, sends the
// negative acknowledgment.
func (p *Proc) settled(c threads.Ctx, f oam.Frame, outcome oam.Outcome, _ oam.Reason) {
	me := c.Node().ID()
	st := &p.stats[me]
	switch outcome {
	case oam.Completed:
		st.Successes++
	case oam.Promoted:
		st.Promoted++
	case oam.NackNeeded:
		st.Nacks++
		p.rt.u.Endpoint(me).Send(c, f.Caller, p.rt.nackH, [4]uint64{f.ID}, nil)
	}
}

// sendReply routes the result record back to the caller, using the bulk
// path when it does not fit an Active Message packet.
func (p *Proc) sendReply(e *oam.Env, caller int, callID uint64, res []byte) {
	if len(res) <= cm5.MaxPayload {
		e.Send(caller, p.rt.replyH, [4]uint64{callID}, res)
	} else {
		e.SendBulk(caller, p.rt.replyH, [4]uint64{callID}, res)
	}
}

// Call performs a synchronous remote procedure call from a thread context
// with the marshaled argument record arg (nil: empty), which it copies,
// and returns the marshaled result record. If the server nacks, Call backs
// off and retries transparently.
func (p *Proc) Call(c threads.Ctx, server int, arg *Enc) Enc {
	res, _ := p.call(c, server, arg, 0)
	return res
}

// A nacked caller backs off before it retries, doubling from
// nackBackoffBase up to nackBackoffMax.
const (
	nackBackoffBase = 10 * sim.Microsecond
	nackBackoffMax  = 320 * sim.Microsecond
)

// nextBackoff doubles a backoff up to nackBackoffMax.
func nextBackoff(cur sim.Duration) sim.Duration { return min(2*cur, nackBackoffMax) }

// CallWithDeadline performs a synchronous call that gives up if no reply
// (or nack) arrives within timeout of virtual time, returning ErrDeadline
// instead of hanging forever. On a lossy or crashy network this is the
// primitive everything else builds on: a reply lost in transit, a crashed
// server, or a partition all surface as a deadline error the caller can
// act on. Nack backoff-and-retry still happens transparently inside the
// window.
//
// The deadline is best effort in one direction only: a timed-out call may
// still have executed on the server (the reply, not the request, may be
// what was lost). Use CallIdempotent when re-execution is safe.
func (p *Proc) CallWithDeadline(c threads.Ctx, server int, arg *Enc, timeout sim.Duration) (Enc, error) {
	if timeout <= 0 {
		panic(fmt.Sprintf("rpc: non-positive deadline for %q", p.name))
	}
	return p.call(c, server, arg, timeout)
}

// call is the client side of a synchronous call; timeout 0 means none.
func (p *Proc) call(c threads.Ctx, server int, arg *Enc, timeout sim.Duration) (Enc, error) {
	if p.async {
		panic(fmt.Sprintf("rpc: synchronous Call of asynchronous procedure %q", p.name))
	}
	if c.T == nil {
		panic(fmt.Sprintf("rpc: synchronous Call of %q from handler context", p.name))
	}
	rt := p.rt
	cost := rt.u.Machine().Cost()
	sh := c.Node().Shard() // deadline timers are node-local state
	me := c.Node().ID()
	ns := rt.node(me)
	ep := rt.u.Endpoint(me)
	st := &p.stats[me]
	deadline := sh.Now().Add(timeout)
	backoff := nackBackoffBase
	p.observe(c, me, RecCallStart, 0)
	var retries uint64
	for {
		st.Calls++
		cl := ns.take(p, c, server, arg)
		if timeout > 0 {
			cl.deadline = deadline
		}
		ep.Drive(c, cost.StubClient, cl)
		cl.flag.Wait(c)
		reply, nacked, timedOut := cl.msg, cl.nacked, cl.timedOut
		ns.end(cl)
		if !timedOut && !nacked {
			p.observe(c, me, RecCallEnd, retries)
			return Enc{reply}, nil
		}
		if nacked {
			// Nacked: back off (bounded exponential) and retry.
			st.Retries++
			retries++
			c.P.Charge(backoff)
			backoff = nextBackoff(backoff)
			if timeout == 0 || sh.Now() < deadline {
				continue
			}
		}
		st.Timeouts++
		p.observe(c, me, RecCallTimeout, retries)
		return Enc{}, ErrDeadline
	}
}

// CallIdempotent retries a deadline call up to attempts times, each with
// its own per-attempt timeout. It is only safe for procedures whose
// re-execution is harmless (reads, leases, at-least-once job hand-outs):
// an attempt whose reply was lost has still run on the server.
//
// Every attempt uses a fresh call id, so a reply to an abandoned attempt
// that surfaces later (healed partition, duplicated packet) is counted in
// StaleReplies and dropped — it can never resolve a subsequent call.
func (p *Proc) CallIdempotent(c threads.Ctx, server int, arg *Enc, per sim.Duration, attempts int) (Enc, error) {
	if attempts < 1 {
		panic(fmt.Sprintf("rpc: CallIdempotent of %q with %d attempts", p.name, attempts))
	}
	var err error
	for i := 0; i < attempts; i++ {
		var res Enc
		res, err = p.CallWithDeadline(c, server, arg, per)
		if err == nil {
			return res, nil
		}
	}
	p.stats[c.Node().ID()].GiveUps++
	return Enc{}, err
}

// CallAsync fires an asynchronous call and returns as soon as the request
// has been injected into the network.
func (p *Proc) CallAsync(c threads.Ctx, server int, arg *Enc) {
	if !p.async {
		panic(fmt.Sprintf("rpc: CallAsync of synchronous procedure %q", p.name))
	}
	me := c.Node().ID()
	p.stats[me].Calls++
	p.observe(c, me, RecCallStart, 0)
	ns := p.rt.node(me)
	cl := ns.take(p, c, server, arg)
	p.rt.u.Endpoint(me).Drive(c, p.rt.u.Machine().Cost().StubClient, cl)
	ns.end(cl)
	p.observe(c, me, RecCallEnd, 0)
}
