package oam

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Strategy selects how an aborted optimistic execution is handled; the
// three options are the three ways to abort of section 2 of the paper.
type Strategy uint8

const (
	// Rerun undoes the attempt and re-executes the whole procedure as a
	// newly created thread. This is the paper prototype's strategy.
	Rerun Strategy = iota
	// Continuation promotes the suspended execution itself to a thread
	// (lazy thread creation): nothing is re-executed.
	Continuation
	// Nack undoes the attempt and reports to the caller that a negative
	// acknowledgment should be sent; the sender backs off and retries.
	Nack
)

func (s Strategy) String() string {
	switch s {
	case Rerun:
		return "rerun"
	case Continuation:
		return "continuation"
	case Nack:
		return "nack"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Options configures a Dispatcher.
type Options struct {
	Strategy Strategy
	// HandlerBudget, when positive, bounds the CPU time an optimistic
	// execution may consume before it aborts with TooLong. Zero disables
	// the check, like the paper's prototype.
	HandlerBudget sim.Duration
	// StrictNetAbort makes Env.Send abort with NetworkFull instead of
	// relying on the CM-5 drain-while-sending behaviour.
	StrictNetAbort bool
	// Cores, when > 1, enables multiactive dispatch: handlers compatible
	// per Compat run concurrently on this many simulated per-node cores
	// (RunMulti). Zero or one keeps the paper's single-active discipline.
	Cores int
	// Compat is the compatibility matrix consulted by multiactive
	// admission. Nil means no two handlers are ever compatible.
	Compat *CompatTable
	// Adaptive replaces the fixed HandlerBudget with a per-node controller
	// that adjusts the budget within [HandlerBudget/4, HandlerBudget*8]
	// and the promote-vs-rerun choice from observed abort history and
	// queue depth. The controller reads only deterministic per-node
	// counters, so adapted schedules stay replayable.
	Adaptive bool
}

// Outcome reports what happened to one optimistic dispatch.
type Outcome uint8

const (
	// Completed: the procedure ran to completion inside the handler.
	Completed Outcome = iota
	// Promoted: the attempt aborted and a thread now owns the procedure.
	Promoted
	// NackNeeded: the attempt aborted under the Nack strategy; the caller
	// (the RPC stub) must send the negative acknowledgment.
	NackNeeded
)

// Stats counts dispatches; Tables 2 and 3 of the paper report exactly
// Total, Succeeded and the success percentage.
type Stats struct {
	Total     uint64
	Succeeded uint64
	Promoted  uint64
	Nacked    uint64
	ByReason  [numReasons]uint64

	// Multiactive admission: dispatches admitted straight onto a core vs.
	// parked in the compatibility queue first.
	CompatAdmitted uint64
	CompatQueued   uint64
	// Adaptive controller actions: handler-budget doublings and halvings.
	BudgetRaised  uint64
	BudgetLowered uint64
}

// SuccessPercent is the "% Successes" column of Tables 2 and 3.
func (s *Stats) SuccessPercent() float64 {
	if s.Total == 0 {
		return 100
	}
	return 100 * float64(s.Succeeded) / float64(s.Total)
}

// statsFormat is shared by String and its round-trip tests.
const statsFormat = "total=%d ok=%d promoted=%d nacked=%d " +
	"compat_admitted=%d compat_queued=%d budget_raised=%d budget_lowered=%d " +
	"lock_busy=%d cond_false=%d network_full=%d too_long=%d"

func (s Stats) String() string {
	return fmt.Sprintf(statsFormat,
		s.Total, s.Succeeded, s.Promoted, s.Nacked,
		s.CompatAdmitted, s.CompatQueued, s.BudgetRaised, s.BudgetLowered,
		s.ByReason[LockBusy], s.ByReason[CondFalse], s.ByReason[NetworkFull], s.ByReason[TooLong])
}

// Add merges o's counters into s.
func (s *Stats) Add(o *Stats) {
	s.Total += o.Total
	s.Succeeded += o.Succeeded
	s.Promoted += o.Promoted
	s.Nacked += o.Nacked
	for r := range o.ByReason {
		s.ByReason[r] += o.ByReason[r]
	}
	s.CompatAdmitted += o.CompatAdmitted
	s.CompatQueued += o.CompatQueued
	s.BudgetRaised += o.BudgetRaised
	s.BudgetLowered += o.BudgetLowered
}

// Dispatcher runs remote-procedure bodies optimistically. One dispatcher
// serves a whole universe; per-procedure statistics belong to the RPC
// layer above. Counters are kept per node — each increments only from its
// own node's polling context — so dispatches on different engine shards
// never contend; Stats sums them.
type Dispatcher struct {
	opts   Options
	stats  []Stats
	multi  []multiNode
	ctls   []nodeCtl
	free   []*Env // per-node free lists of recycled Envs
	probe  Probe
	mprobe MultiProbe
}

// Probe observes optimistic dispatches. Probes are pure observers — they
// must not schedule events or charge virtual time; hooks are skipped when
// no probe is installed.
type Probe interface {
	// Attempt fires when an optimistic dispatch begins on node.
	Attempt(t sim.Time, node int, name string, strategy Strategy)
	// Settled fires when the dispatch outcome is known on the polling
	// context: completed inline, promoted to a thread (reason says why),
	// or nacked back to the sender.
	Settled(t sim.Time, node int, name string, outcome Outcome, reason Reason, strategy Strategy)
}

// MultiProbe is the optional multiactive extension of Probe: a probe that
// also implements it receives core-occupancy and compatibility-queue
// tracks. Kept separate so existing Probe implementations stay valid.
type MultiProbe interface {
	// CoreOccupancy fires when the number of busy simulated cores on node
	// changes.
	CoreOccupancy(t sim.Time, node int, busy int)
	// CompatQueueDepth fires when node's compatibility queue changes
	// length.
	CompatQueueDepth(t sim.Time, node int, depth int)
}

// SetProbe installs a dispatch probe; pass nil to disable. A probe that
// also implements MultiProbe receives the multiactive tracks.
func (d *Dispatcher) SetProbe(p Probe) {
	d.probe = p
	d.mprobe, _ = p.(MultiProbe)
}

// NewDispatcher returns a dispatcher with the given options.
func NewDispatcher(opts Options) *Dispatcher { return &Dispatcher{opts: opts} }

// SetNodes sizes the per-node counter table. Callers that know the
// universe size (the RPC runtime) call it up front; otherwise the table
// grows on first use per node, which is only safe on a sequential engine.
func (d *Dispatcher) SetNodes(n int) {
	if n > len(d.stats) {
		grown := make([]Stats, n)
		copy(grown, d.stats)
		d.stats = grown
		multi := make([]multiNode, n)
		copy(multi, d.multi)
		d.multi = multi
		ctls := make([]nodeCtl, n)
		copy(ctls, d.ctls)
		d.ctls = ctls
		free := make([]*Env, n)
		copy(free, d.free)
		d.free = free
	}
}

// nodeStats returns node's counter slot.
func (d *Dispatcher) nodeStats(node int) *Stats {
	if node >= len(d.stats) {
		d.SetNodes(node + 1)
	}
	return &d.stats[node]
}

// Stats returns a snapshot of the dispatch counters, summed across nodes.
func (d *Dispatcher) Stats() Stats {
	var out Stats
	for i := range d.stats {
		out.Add(&d.stats[i])
	}
	return out
}

// RunThread executes body pessimistically as a newly created thread (the
// Traditional RPC path): locks block, condition waits wait, sends go out
// immediately. front selects the ready-queue end. It counts in no
// dispatch statistic.
func (d *Dispatcher) RunThread(c threads.Ctx, ep *am.Endpoint, name threads.Name, front bool, body func(*Env), f Frame) threads.Handle {
	env := d.acquire(c, ep, name.Base, body, f, false)
	return c.S.CreateNamed(c, name, front, env.thread)
}

// Run executes body as an Optimistic Active Message on the polling
// context c (a handler context) of endpoint ep. It returns what became of
// the execution and, for aborts, why.
//
// Rerun and Nack attempt the body inline on c; Continuation attempts it
// on a lent auxiliary process so that a blocked execution can be adopted
// as a thread without re-execution.
func (d *Dispatcher) Run(c threads.Ctx, ep *am.Endpoint, name string, body func(*Env)) (Outcome, Reason) {
	return d.RunFrame(c, ep, name, body, Frame{})
}

// RunFrame is Run for a body shared by every call of a procedure: what
// distinguishes this call reaches the body as e.Frame.
func (d *Dispatcher) RunFrame(c threads.Ctx, ep *am.Endpoint, name string, body func(*Env), f Frame) (Outcome, Reason) {
	node := ep.Node().ID()
	d.nodeStats(node).Total++
	strat := d.opts.Strategy
	if d.opts.Adaptive && strat == Rerun && d.nodeCtl(node).preferLazy {
		// History-driven promote choice: under sustained aborts, promote
		// the suspended execution in place instead of re-running it.
		strat = Continuation
	}
	if strat == Continuation {
		o, r := d.runLent(c, ep, name, body, f)
		if d.opts.Adaptive {
			d.adapt(node, o != Completed, r, ep.Node().Pending())
		}
		return o, r
	}
	return d.inline(c, ep, name, strat, body, f, nil, nil)
}

// inline is the one optimistic-attempt core: it attempts body on the
// context c and settles the result — commit or undo, the node's counters,
// the adaptive controller, a nack verdict or a rerun thread, then the
// caller's hook and the probe, in that order (observed traces depend on
// it). strat is Rerun or Nack. Single-active Run and the multiactive core
// workers both end here and differ only in ent and hook:
//
//   - ent is the compatibility slot the execution occupies, nil under
//     single-active dispatch. With a slot, the backlog the controller
//     sees is the compatibility queue instead of the NIC queue, and a
//     rerun thread releases the slot when it finishes (the caller drops
//     it for every other outcome).
//   - hook, if non-nil, hears the outcome on c. Multiactive callers need
//     it because a queued execution settles after RunMulti has returned;
//     Run's caller reads the return value instead.
func (d *Dispatcher) inline(c threads.Ctx, ep *am.Endpoint, name string, strat Strategy, body func(*Env), f Frame, ent *runEntry, hook func(threads.Ctx, Frame, Outcome, Reason)) (Outcome, Reason) {
	node := ep.Node().ID()
	st := d.nodeStats(node)
	if d.probe != nil {
		d.probe.Attempt(c.P.Now(), node, name, strat)
	}
	env := d.acquire(c, ep, name, body, f, true)
	reason, aborted := attempt(env, body)
	outcome := Completed
	if !aborted {
		env.commit()
		st.Succeeded++
	} else {
		env.undo()
		st.ByReason[reason]++
		outcome = Promoted
		if strat == Nack {
			outcome = NackNeeded
		}
	}
	if d.opts.Adaptive {
		backlog := ep.Node().Pending()
		if ent != nil {
			backlog = len(d.multi[node].queue)
		}
		d.adapt(node, aborted, reason, backlog)
	}
	switch outcome {
	case NackNeeded:
		st.Nacked++
	case Promoted:
		// Everything is undone: run the whole procedure as a thread, which
		// keeps the Env (and releases it, and the slot, when it ends).
		st.Promoted++
		env.optimistic, env.ent = false, ent
		c.S.CreateNamed(c, threads.Name{Prefix: "oam/", Base: name}, true, env.thread)
	}
	if outcome != Promoted {
		d.release(env)
	}
	if hook != nil {
		hook(c, f, outcome, reason)
	}
	if d.probe != nil {
		d.probe.Settled(c.P.Now(), node, name, outcome, reason, strat)
	}
	return outcome, reason
}

// attempt runs body optimistically, converting an abort unwind into a
// (reason, true) result. Other panics propagate.
func attempt(env *Env, body func(*Env)) (reason Reason, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			sig, ok := r.(abortSignal)
			if !ok {
				panic(r)
			}
			reason, aborted = sig.reason, true
		}
	}()
	body(env)
	return 0, false
}

// runLent implements the Continuation strategy: the body executes on an
// auxiliary process holding the CPU on loan. If it completes, the loan
// ends and the handler cost was all there was. If it must block, the
// execution is adopted as a thread in place — lazy thread creation — and
// the polling context resumes immediately.
func (d *Dispatcher) runLent(c threads.Ctx, ep *am.Endpoint, name string, body func(*Env), f Frame) (Outcome, Reason) {
	node := ep.Node().ID()
	if d.probe != nil {
		d.probe.Attempt(c.P.Now(), node, name, Continuation)
	}
	env := d.acquire(threads.Ctx{S: c.S}, ep, name, body, f, true)
	env.lent = true
	c.S.Lend(c.P.Shard().SpawnRunner((*lentExec)(env)))
	c.P.Park() // until the body finishes or detaches
	if !env.settled {
		panic("oam: lent execution returned control without settling")
	}
	// A promoted execution keeps its Env until its thread ends, which
	// cannot be before this context has scheduled it.
	outcome, reason := env.outcome, env.reason
	if outcome == Completed {
		d.release(env)
	}
	if d.probe != nil {
		d.probe.Settled(c.P.Now(), node, name, outcome, reason, Continuation)
	}
	return outcome, reason
}

// lentExec is an Env seen as the sim.Runner of its lent execution: the
// auxiliary process of runLent, spawned with no closure.
type lentExec Env

func (x *lentExec) Name() string { return "oam/" + x.name }

func (x *lentExec) Run(p *sim.Proc) {
	e := (*Env)(x)
	s := e.C.S
	e.C.P = p
	e.body(e)
	e.commit()
	if e.C.T == nil {
		// Ran to completion inside the handler.
		e.outcome, e.reason, e.settled = Completed, 0, true
		e.d.nodeStats(e.ep.Node().ID()).Succeeded++
		s.FinishLent()
		return
	}
	// Completed as a promoted thread.
	c := e.C
	e.d.release(e)
	s.FinishAdopted(c)
}
