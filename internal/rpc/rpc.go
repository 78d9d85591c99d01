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
	// NackBackoffBase and NackBackoffMax bound the exponential backoff a
	// nacked caller performs before retrying. Zero values select 10 us
	// and 320 us.
	NackBackoffBase sim.Duration
	NackBackoffMax  sim.Duration
}

// Runtime is the per-universe RPC engine.
type Runtime struct {
	u      *am.Universe
	opts   Options
	d      *oam.Dispatcher // dispatcher for synchronous procedures
	dAsync *oam.Dispatcher // async procedures never nack; see doc.go
	replyH am.HandlerID
	nackH  am.HandlerID
	nodes  []nodeState
	procs  []*Proc
	probe  Probe
}

// Probe observes client-side call lifecycles. Probes are pure observers —
// they must not schedule events or charge virtual time; hooks are skipped
// when no probe is installed.
type Probe interface {
	// CallStart fires when a client begins a synchronous call (before the
	// first request is injected) or fires an asynchronous one.
	CallStart(t sim.Time, node int, proc string)
	// CallEnd fires when the call resolves; timedOut reports a deadline
	// expiry, retries how many nack retries the call absorbed.
	CallEnd(t sim.Time, node int, proc string, timedOut bool, retries uint64)
	// StaleReply fires when a reply or nack arrives for a call no longer
	// waiting (deadline abandonment or duplicate delivery).
	StaleReply(t sim.Time, node int)
}

// SetProbe installs a call probe; pass nil to disable.
func (rt *Runtime) SetProbe(p Probe) { rt.probe = p }

// nodeState is the client-side call table of one node. It is only ever
// touched from code running on that node, so it needs no locking under a
// sharded engine.
type nodeState struct {
	seq   uint64  // attempts started; the high part of the next call id
	slots []*call // every call record this node has made, by slot
	free  *call   // idle records, most recently released first
	stale uint64  // replies/nacks for calls no longer waiting
}

// call is one outstanding attempt of a synchronous call. Records are
// recycled on their node's free list, with expire bound once per record,
// so steady-state calls allocate nothing here.
//
// A call id is (attempt sequence number << slotBits | slot): the slot
// finds the record without a table lookup, and the sequence number tells
// a reply to the attempt in flight from one to an earlier tenant of the
// record, so a late reply, nack or duplicate never resolves a call it was
// not sent for, however quickly the record was reused.
type call struct {
	id       uint64 // the attempt in flight; 0 while the record is idle
	slot     uint64
	flag     threads.Flag
	reply    []byte
	nacked   bool
	timedOut bool
	timer    sim.Timer
	expire   func() // cl.onDeadline, the deadline timer's callback
	next     *call  // free-list link
}

const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
)

// begin takes an idle call record (or makes one) and gives it a fresh id.
func (ns *nodeState) begin() *call {
	cl := ns.free
	if cl != nil {
		ns.free = cl.next
		cl.next = nil
	} else {
		if len(ns.slots) > slotMask {
			panic("rpc: too many concurrent calls from one node")
		}
		cl = &call{slot: uint64(len(ns.slots))}
		cl.expire = cl.onDeadline
		ns.slots = append(ns.slots, cl)
	}
	ns.seq++
	cl.id = ns.seq<<slotBits | cl.slot
	return cl
}

// end recycles cl once its caller has read the outcome. Cancelling the
// deadline here is what keeps a recycled record's timer from firing.
func (ns *nodeState) end(cl *call) {
	cl.timer.Cancel() // no-op on the zero Timer
	*cl = call{slot: cl.slot, expire: cl.expire, next: ns.free}
	ns.free = cl
}

// waiting returns the call id was issued for if it still waits for its
// outcome, else nil: the caller gave up (deadline), already has an answer,
// or moved on long ago and the record serves another call.
func (ns *nodeState) waiting(id uint64) *call {
	slot := id & slotMask
	if slot >= uint64(len(ns.slots)) {
		return nil
	}
	if cl := ns.slots[slot]; cl.id == id && !cl.flag.IsSet() {
		return cl
	}
	return nil
}

func (cl *call) onDeadline() {
	if !cl.flag.IsSet() {
		cl.timedOut = true
		cl.flag.Set()
	}
}

// New builds an RPC runtime over u. Define all procedures before the
// simulation starts.
func New(u *am.Universe, opts Options) *Runtime {
	if opts.NackBackoffBase == 0 {
		opts.NackBackoffBase = sim.Micros(10)
	}
	if opts.NackBackoffMax == 0 {
		opts.NackBackoffMax = sim.Micros(320)
	}
	rt := &Runtime{u: u, opts: opts}
	rt.d = oam.NewDispatcher(opts.OAM)
	asyncOpts := opts.OAM
	if asyncOpts.Strategy == oam.Nack {
		asyncOpts.Strategy = oam.Rerun
	}
	rt.dAsync = oam.NewDispatcher(asyncOpts)
	rt.d.SetNodes(u.N())
	rt.dAsync.SetNodes(u.N())
	rt.nodes = make([]nodeState, u.N())
	rt.replyH = u.Register("rpc/reply", rt.handleReply)
	rt.nackH = u.Register("rpc/nack", rt.handleNack)
	return rt
}

// Universe returns the universe the runtime is bound to.
func (rt *Runtime) Universe() *am.Universe { return rt.u }

// Mode returns the runtime's dispatch mode.
func (rt *Runtime) Mode() Mode { return rt.opts.Mode }

// Dispatcher exposes the OAM dispatcher (for statistics).
func (rt *Runtime) Dispatcher() *oam.Dispatcher { return rt.d }

// AsyncDispatcher exposes the dispatcher used by asynchronous procedures.
func (rt *Runtime) AsyncDispatcher() *oam.Dispatcher { return rt.dAsync }

func (rt *Runtime) handleReply(c threads.Ctx, pkt *cm5.Packet) {
	if cl := rt.resolving(c, pkt); cl != nil {
		cl.reply = pkt.Payload
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
	ns := &rt.nodes[pkt.Dst]
	cl := ns.waiting(pkt.W0)
	if cl == nil {
		ns.stale++
		if rt.probe != nil {
			rt.probe.StaleReply(c.P.Now(), pkt.Dst)
		}
	}
	return cl
}

// StaleReplies counts replies and nacks that arrived for calls no longer
// waiting — abandoned by a deadline, or already resolved. Always zero on
// a fault-free network.
func (rt *Runtime) StaleReplies() uint64 {
	var n uint64
	for i := range rt.nodes {
		n += rt.nodes[i].stale
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

// SuccessPercent is the "% Successes" column of Tables 2 and 3.
func (s *ProcStats) SuccessPercent() float64 {
	if s.OAMs == 0 {
		return 100
	}
	return 100 * float64(s.Successes) / float64(s.OAMs)
}

// Impl is the server-side body of a remote procedure. It runs against e
// (optimistically or as a thread, depending on mode and luck), with
// caller identifying the client node. arg is the marshaled argument
// record; the returned record is marshaled results (ignored for
// asynchronous procedures).
type Impl func(e *oam.Env, caller int, arg []byte) []byte

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
	rt.d.SetCompat(spec.Table)
	rt.dAsync.SetCompat(spec.Table)
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
	if len(res) <= p.rt.u.Machine().Cost().MaxPayload {
		e.Send(caller, p.rt.replyH, [4]uint64{callID}, res)
	} else {
		e.SendBulk(caller, p.rt.replyH, [4]uint64{callID}, res)
	}
}

// Call performs a synchronous remote procedure call from a thread context
// and returns the marshaled result record. If the server nacks, Call
// backs off and retries transparently.
func (p *Proc) Call(c threads.Ctx, server int, arg []byte) []byte {
	res, _ := p.call(c, server, arg, 0)
	return res
}

// nextBackoff doubles a backoff up to its cap.
func nextBackoff(cur, max sim.Duration) sim.Duration {
	cur *= 2
	if cur > max {
		return max
	}
	return cur
}

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
func (p *Proc) CallWithDeadline(c threads.Ctx, server int, arg []byte, timeout sim.Duration) ([]byte, error) {
	if timeout <= 0 {
		panic(fmt.Sprintf("rpc: non-positive deadline for %q", p.name))
	}
	return p.call(c, server, arg, timeout)
}

// call is the client side of a synchronous call; timeout 0 means none.
func (p *Proc) call(c threads.Ctx, server int, arg []byte, timeout sim.Duration) ([]byte, error) {
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
	ns := &rt.nodes[me]
	st := &p.stats[me]
	deadline := sh.Now().Add(timeout)
	backoff := rt.opts.NackBackoffBase
	if rt.probe != nil {
		rt.probe.CallStart(c.P.Now(), me, p.name)
	}
	var retries uint64
	for {
		st.Calls++
		c.P.Charge(cost.StubClient)
		cl := ns.begin()
		if timeout > 0 {
			cl.timer = sh.AtTimer(deadline, cl.expire)
		}
		p.sendRequest(c, server, cl.id, arg)
		cl.flag.Wait(c)
		reply, nacked, timedOut := cl.reply, cl.nacked, cl.timedOut
		ns.end(cl)
		if !timedOut && !nacked {
			if rt.probe != nil {
				rt.probe.CallEnd(c.P.Now(), me, p.name, false, retries)
			}
			return reply, nil
		}
		if nacked {
			// Nacked: back off (bounded exponential) and retry.
			st.Retries++
			retries++
			c.P.Charge(backoff)
			backoff = nextBackoff(backoff, rt.opts.NackBackoffMax)
			if timeout == 0 || sh.Now() < deadline {
				continue
			}
		}
		st.Timeouts++
		if rt.probe != nil {
			rt.probe.CallEnd(c.P.Now(), me, p.name, true, retries)
		}
		return nil, ErrDeadline
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
func (p *Proc) CallIdempotent(c threads.Ctx, server int, arg []byte, per sim.Duration, attempts int) ([]byte, error) {
	if attempts < 1 {
		panic(fmt.Sprintf("rpc: CallIdempotent of %q with %d attempts", p.name, attempts))
	}
	var err error
	for i := 0; i < attempts; i++ {
		var res []byte
		res, err = p.CallWithDeadline(c, server, arg, per)
		if err == nil {
			return res, nil
		}
	}
	p.stats[c.Node().ID()].GiveUps++
	return nil, err
}

// CallAsync fires an asynchronous call and returns as soon as the request
// has been injected into the network.
func (p *Proc) CallAsync(c threads.Ctx, server int, arg []byte) {
	if !p.async {
		panic(fmt.Sprintf("rpc: CallAsync of synchronous procedure %q", p.name))
	}
	me := c.Node().ID()
	p.stats[me].Calls++
	if p.rt.probe != nil {
		p.rt.probe.CallStart(c.P.Now(), me, p.name)
	}
	c.P.Charge(p.rt.u.Machine().Cost().StubClient)
	p.sendRequest(c, server, 0, arg)
	if p.rt.probe != nil {
		p.rt.probe.CallEnd(c.P.Now(), me, p.name, false, 0)
	}
}

func (p *Proc) sendRequest(c threads.Ctx, server int, id uint64, arg []byte) {
	ep := p.rt.u.Endpoint(c.Node().ID())
	if len(arg) <= p.rt.u.Machine().Cost().MaxPayload {
		ep.Send(c, server, p.h, [4]uint64{id}, arg)
	} else {
		ep.SendBulk(c, server, p.h, [4]uint64{id}, arg)
	}
}
