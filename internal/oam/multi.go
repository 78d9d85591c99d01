package oam

import (
	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Multiactive dispatch: with Options.Cores > 1 the dispatcher admits an
// arriving handler inline iff it is compatible (per Options.Compat) with
// every execution currently running on the node, assigns it the
// lowest-numbered free simulated core, and queues it FIFO otherwise. Each
// admitted execution runs on its own spawned simulation process bound as
// a core worker (threads.Scheduler.BindCore), charging its own virtual
// time — so K compatible handlers and the node's poller overlap in
// simulated time, extending the machine's per-node charge model from one
// implicit core to K. All per-node state lives on the node's own shard
// and every policy (head-only FIFO admission, lowest-free-core) is
// deterministic, so schedules stay canonical and bit-identical across
// shard counts and modes.

// runEntry is one admitted execution occupying a compatibility slot. A
// promoted (aborted-and-rerun) execution keeps its slot — a "shadow"
// entry — until the rerun thread finishes, so incompatible arrivals stay
// queued behind it and the exclusion the matrix promises is never
// violated mid-rerun.
type runEntry struct {
	name   string
	class  int
	key    uint64
	hasKey bool
	next   *runEntry // free-list link
}

// queuedExec is a dispatch waiting for a compatible admission slot, or
// admitted and not yet started. It holds its frame's argument by value:
// the packet it came in is recycled when RunMulti returns.
type queuedExec struct {
	ent    runEntry
	body   func(*Env)
	frame  Frame
	arg    cm5.Record
	settle func(threads.Ctx, Frame, Outcome, Reason)
}

// multiNode is the per-node multiactive state. Touched only from the
// node's own shard, so no locking is needed (same discipline as the
// per-node Stats slots).
type multiNode struct {
	coreBusy   []bool
	busy       int
	running    []*runEntry
	queue      []queuedExec
	freeEnt    *runEntry // recycled slot entries and core workers
	freeWorker *coreWorker
}

// admit enters a copy of e in the running set and returns it.
func (mn *multiNode) admit(e *runEntry) *runEntry {
	ent := mn.freeEnt
	if ent != nil {
		mn.freeEnt = ent.next
	} else {
		ent = new(runEntry)
	}
	*ent = *e
	mn.running = append(mn.running, ent)
	return ent
}

// freeCore returns the lowest-numbered free core, or -1.
func (mn *multiNode) freeCore() int {
	for i, b := range mn.coreBusy {
		if !b {
			return i
		}
	}
	return -1
}

// admissible reports whether e is compatible with every running (or
// shadow) execution on the node.
func (mn *multiNode) admissible(t *CompatTable, e *runEntry) bool {
	for _, r := range mn.running {
		if !compatibleEntries(t, r, e) {
			return false
		}
	}
	return true
}

// remove drops e from the running set and recycles it.
func (mn *multiNode) remove(e *runEntry) {
	for i, r := range mn.running {
		if r == e {
			mn.running = append(mn.running[:i], mn.running[i+1:]...)
			*e = runEntry{next: mn.freeEnt}
			mn.freeEnt = e
			return
		}
	}
}

// multiAt returns node's multiactive state, sizing the core table on
// first use.
func (d *Dispatcher) multiAt(node int) *multiNode {
	if node >= len(d.multi) {
		d.SetNodes(node + 1)
	}
	mn := &d.multi[node]
	if mn.coreBusy == nil {
		cores := d.opts.Cores
		if cores < 1 {
			cores = 1
		}
		mn.coreBusy = make([]bool, cores)
	}
	return mn
}

// note emits a multiactive track record of kind k, n busy cores or
// queued executions on node, if sh has a sink.
func note(sh *sim.Shard, k sim.Kind, node, n int) {
	if sink := sh.Sink(); sink != nil {
		sink.Observe(sim.Record{T: sh.Now(), Layer: sim.LayerOAM, Kind: k, Node: node, N: n})
	}
}

// RunMulti executes body as a multiactive Optimistic Active Message.
// class and key (valid when hasKey) position the execution in the
// compatibility matrix; f reaches the body as e.Frame. Because a queued
// execution settles after RunMulti returns, the outcome is delivered
// through settle — called exactly once, on the execution's own context,
// with the call's frame — instead of being returned. settle may be nil.
func (d *Dispatcher) RunMulti(c threads.Ctx, ep *am.Endpoint, name string, class int, key uint64, hasKey bool, body func(*Env), f Frame, settle func(threads.Ctx, Frame, Outcome, Reason)) {
	node := ep.Node().ID()
	st := d.nodeStats(node)
	st.Total++
	mn := d.multiAt(node)
	q := queuedExec{body: body, frame: f, settle: settle,
		ent: runEntry{name: name, class: class, key: key, hasKey: hasKey}}
	q.arg.Set(f.Arg)
	// Head-only FIFO: an arrival may jump straight onto a core only when
	// nothing is already waiting, so admission order is arrival order.
	if len(mn.queue) == 0 && mn.freeCore() >= 0 && mn.admissible(d.opts.Compat, &q.ent) {
		st.CompatAdmitted++
		d.startCore(c, ep, mn, q)
		return
	}
	st.CompatQueued++
	mn.queue = append(mn.queue, q)
	note(c.P.Shard(), RecCompatQueue, node, len(mn.queue))
}

// coreWorker is the process that runs admitted executions on one core: the
// one it was started for, then admissible queue heads until none is left.
// It is its own sim.Runner, recycled per node: no closure per core start.
type coreWorker struct {
	d    *Dispatcher
	ep   *am.Endpoint
	mn   *multiNode
	s    *threads.Scheduler
	core int
	name string     // the first execution's: the process is named after it
	q    queuedExec // the execution to run next
	ent  *runEntry  // its slot in the running set
	next *coreWorker
}

func (w *coreWorker) Name() string { return "oamcore/" + w.name }

// startCore claims the lowest-numbered free core for q and spawns a
// worker process that runs it — and then keeps draining admissible queue
// heads on the same core — before releasing the core.
func (d *Dispatcher) startCore(c threads.Ctx, ep *am.Endpoint, mn *multiNode, q queuedExec) {
	w := mn.freeWorker
	if w != nil {
		mn.freeWorker = w.next
	} else {
		w = &coreWorker{d: d, ep: ep, mn: mn, s: c.S}
	}
	w.core, w.name, w.q = mn.freeCore(), q.ent.name, q
	mn.coreBusy[w.core] = true
	mn.busy++
	w.ent = mn.admit(&q.ent)
	note(c.P.Shard(), RecCores, ep.Node().ID(), mn.busy)
	c.P.Shard().SpawnRunner(w)
}

func (w *coreWorker) Run(p *sim.Proc) {
	d, mn, node := w.d, w.mn, w.ep.Node().ID()
	w.s.BindCore(p)
	c := threads.Ctx{P: p, T: nil, S: w.s}
	for {
		f := w.q.frame
		f.Arg = w.q.arg.Bytes()
		d.runOnCore(c, w.ep, mn, w.ent, w.q.body, f, w.q.settle)
		var ok bool
		if w.q, ok = mn.takeHead(d.opts.Compat); !ok {
			break
		}
		note(p.Shard(), RecCompatQueue, node, len(mn.queue))
		w.ent = mn.admit(&w.q.ent)
	}
	w.s.UnbindCore(p)
	mn.coreBusy[w.core] = false
	mn.busy--
	note(p.Shard(), RecCores, node, mn.busy)
	w.ent, w.next = nil, mn.freeWorker
	mn.freeWorker = w
}

// takeHead pops and returns the queue head if it is compatible with every
// running execution. Strict FIFO: an inadmissible head blocks everything
// behind it, which keeps admission order deterministic and starvation
// impossible.
func (mn *multiNode) takeHead(t *CompatTable) (queuedExec, bool) {
	if len(mn.queue) == 0 {
		return queuedExec{}, false
	}
	head := mn.queue[0]
	if !mn.admissible(t, &head.ent) {
		return queuedExec{}, false
	}
	n := copy(mn.queue, mn.queue[1:])
	mn.queue[n] = queuedExec{}
	mn.queue = mn.queue[:n]
	return head, true
}

// runOnCore runs one admitted execution on the worker context c2 through
// the shared attempt core. Aborts never retry on the core (that could
// livelock two same-instant executions): Nack reports back through
// settle, anything else promotes to a rerun thread, whose entry stays in
// the running set as a shadow slot until the rerun finishes. The
// Continuation strategy falls back to Rerun here — the lend/adopt
// protocol presumes the single-CPU discipline.
func (d *Dispatcher) runOnCore(c2 threads.Ctx, ep *am.Endpoint, mn *multiNode, ent *runEntry, body func(*Env), f Frame, settle func(threads.Ctx, Frame, Outcome, Reason)) {
	strat := d.opts.Strategy
	if strat == Continuation {
		strat = Rerun
	}
	// The attempt record is emitted here, at core-run start, not at
	// arrival, so its attempt/settle pairing stays balanced per node.
	if o, _ := d.inline(c2, ep, ent.name, strat, body, f, ent, settle); o != Promoted {
		mn.remove(ent)
	}
}

// releaseSlot drops a promoted execution's shadow slot once its rerun
// thread has finished, then admits any queue heads that became both
// compatible and core-eligible.
func (d *Dispatcher) releaseSlot(c threads.Ctx, ep *am.Endpoint, ent *runEntry) {
	node := ep.Node().ID()
	mn := &d.multi[node]
	mn.remove(ent)
	d.pump(c, ep, node, mn)
}

// pump starts workers for queue heads that are admissible now. Only
// needed when the running set shrinks outside a worker loop (shadow-slot
// release): workers themselves continue the queue on their own core.
func (d *Dispatcher) pump(c threads.Ctx, ep *am.Endpoint, node int, mn *multiNode) {
	for mn.freeCore() >= 0 {
		q, ok := mn.takeHead(d.opts.Compat)
		if !ok {
			return
		}
		note(c.P.Shard(), RecCompatQueue, node, len(mn.queue))
		d.startCore(c, ep, mn, q)
	}
}
