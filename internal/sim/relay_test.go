package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A relay program is a set of scripts run by processes of one shard that
// charge, park and wake each other, exit and respawn, so that the kernel
// role is handed about in every shape the resume chain has to cope with.
// Each body logs a step whenever it gets control; the log is then held
// against two independent models: relayOracle for which step runs when (the
// queue order), relayModel for how many coroutine switches that must cost.
type relayProg struct {
	scripts [][]relayOp
	start   int    // scripts[:start] are spawned at setup, in order
	until   []Time // RunUntil deadlines before the final Run
}

// relayOp is one script step, written as a token (see parseRelay):
//
//	cN   Charge(N ticks); c0 yields to same-time events
//	p    Park
//	uK   Unpark process K (in spawn order), if it is parked
//	sK   Spawn a process running script K
//	aNx  After(N ticks) a kernel callback does x: sK, uK, S or !
//	S    Stop
//	!    panic("boom")
//	G    runtime.Goexit()
type relayOp struct {
	kind byte
	d    Duration
	k    int
	cb   byte // 'a' only: the callback's action, on k
}

const (
	relayTick     = 100 * Nanosecond
	relayMaxProcs = 64 // spawns beyond this are no-ops, so every program ends
)

func parseRelay(script string) []relayOp {
	var ops []relayOp
	for _, tok := range strings.Fields(script) {
		op, rest := relayOp{kind: tok[0]}, tok[1:]
		if op.kind == 'a' {
			i := strings.IndexAny(rest, "suS!")
			n, _ := strconv.Atoi(rest[:i])
			op.d, op.cb, rest = Duration(n)*relayTick, rest[i], rest[i+1:]
		}
		n, _ := strconv.Atoi(rest)
		if op.kind == 'c' {
			op.d = Duration(n) * relayTick
		} else {
			op.k = n
		}
		ops = append(ops, op)
	}
	return ops
}

// has reports whether any script has a step, or a callback, of that kind.
func (prog *relayProg) has(kind byte) bool {
	for _, ops := range prog.scripts {
		for _, op := range ops {
			if op.kind == kind || op.kind == 'a' && op.cb == kind {
				return true
			}
		}
	}
	return false
}

func newRelayProg(start int, until []Time, scripts ...string) *relayProg {
	prog := &relayProg{start: start, until: until}
	for _, s := range scripts {
		prog.scripts = append(prog.scripts, parseRelay(s))
	}
	return prog
}

// relayStep is one log entry: process proc got control for the step-th time
// at instant at, on coroutine co. A nil co marks the end of a run or span.
type relayStep struct {
	proc, step int
	at         Time
	co         *Proc
}

func (s relayStep) String() string { return fmt.Sprintf("%d p%d.%d", s.at, s.proc, s.step) }

// relayOracle is the serial cooperative engine the kernel must be
// observationally equivalent to: one list of events ordered by (time,
// scheduling order), no coroutines, no switch mechanism at all.
type relayOracle struct {
	prog     *relayProg
	heedStop bool // a sharded engine's Stop waits for the span to commit
	now      Time
	seq      int
	evs      []oracleEv
	procs    []*oracleProc
	log      []relayStep
	halted   bool // by Stop, a panic or Goexit; for good
}

type oracleEv struct {
	at   Time
	seq  int
	proc int  // -1: a kernel callback doing cb on k
	cb   byte // see relayOp
	k    int
}

type oracleProc struct {
	ops      []relayOp
	pc, step int
	parked   bool
}

func (o *relayOracle) schedule(at Time, proc int, cb byte, k int) {
	o.seq++
	o.evs = append(o.evs, oracleEv{at, o.seq, proc, cb, k})
}

// act does what relayShard.act does, and reports whether the caller died.
func (o *relayOracle) act(kind byte, k int) bool {
	switch kind {
	case 'u':
		if k < len(o.procs) && o.procs[k].parked {
			o.procs[k].parked = false
			o.schedule(o.now, k, 0, 0)
		}
	case 's':
		if len(o.procs) < relayMaxProcs {
			o.procs = append(o.procs, &oracleProc{ops: o.prog.scripts[k]})
			o.schedule(o.now, len(o.procs)-1, 0, 0)
		}
	case 'S':
		o.halted = o.halted || o.heedStop
	case '!', 'G':
		o.halted = true
		return true
	}
	return false
}

func (o *relayOracle) runUntil(deadline Time) {
	for !o.halted {
		best := -1
		for i, ev := range o.evs {
			if best < 0 || ev.at < o.evs[best].at || ev.at == o.evs[best].at && ev.seq < o.evs[best].seq {
				best = i
			}
		}
		if best < 0 || o.evs[best].at > deadline {
			return
		}
		ev := o.evs[best]
		o.evs = slices.Delete(o.evs, best, best+1)
		o.now = ev.at
		if ev.proc < 0 {
			o.act(ev.cb, ev.k)
			continue
		}
		pr := o.procs[ev.proc]
		o.log = append(o.log, relayStep{proc: ev.proc, step: pr.step, at: o.now})
		pr.step++
	body:
		for pr.pc < len(pr.ops) {
			op := pr.ops[pr.pc]
			pr.pc++
			switch op.kind {
			case 'c':
				o.schedule(o.now.Add(op.d), ev.proc, 0, 0)
				break body
			case 'p':
				pr.parked = true
				break body
			case 'a':
				o.schedule(o.now.Add(op.d), -1, op.cb, op.k)
			default:
				if o.act(op.kind, op.k) {
					break body
				}
			}
		}
	}
}

// relayExpect is the oracle's log for the whole program.
func relayExpect(prog *relayProg, heedStop bool) []relayStep {
	o := &relayOracle{prog: prog, heedStop: heedStop}
	for k := 0; k < prog.start; k++ {
		o.act('s', k)
	}
	for _, d := range prog.until {
		o.runUntil(d)
	}
	o.runUntil(maxTime)
	return o.log
}

// relayModel is the resume chain as a stack of coroutines, root-most first.
// A coroutine that gets control is pushed if absent (its next is called, by
// the tip or, with the chain at its bound, by the one below after the tip
// has popped) and otherwise everything above it pops (yields); the end of a
// run or span pops everything. Pushes plus pops is what Engine.Switches must
// read.
type relayModel struct {
	stack    []*Proc
	switches uint64
	maxDepth int
	ends     []int // the depth each run or span ended at
}

func (m *relayModel) replay(log []relayStep) {
	for _, s := range log {
		keep := 0
		if s.co == nil {
			m.ends = append(m.ends, len(m.stack))
		} else if keep = slices.Index(m.stack, s.co) + 1; keep == 0 {
			if len(m.stack) == maxChain {
				m.stack = m.stack[:maxChain-1]
				m.switches++
			}
			m.stack = append(m.stack, s.co)
			m.switches++
			m.maxDepth = max(m.maxDepth, len(m.stack))
			continue
		}
		m.switches += uint64(len(m.stack) - keep)
		m.stack = m.stack[:keep]
	}
}

// relayShard plays the program on one shard of the engine under test.
type relayShard struct {
	sh    *Shard
	prog  *relayProg
	procs []*relayProc // in spawn order
	log   []relayStep
}

type relayProc struct {
	p      *Proc
	parked bool
}

func (rs *relayShard) act(kind byte, k int) {
	switch kind {
	case 'u':
		if k < len(rs.procs) && rs.procs[k].parked {
			rs.procs[k].parked = false
			rs.procs[k].p.Unpark()
		}
	case 's':
		if len(rs.procs) == relayMaxProcs {
			return
		}
		idx, st := len(rs.procs), &relayProc{}
		rs.procs = append(rs.procs, st)
		st.p = rs.sh.Spawn(fmt.Sprintf("p%d", idx), func(p *Proc) { rs.body(p, idx, st, rs.prog.scripts[k]) })
	case 'S':
		rs.sh.Engine().Stop()
	case '!':
		panic("boom")
	case 'G':
		runtime.Goexit()
	}
}

func (rs *relayShard) body(p *Proc, idx int, st *relayProc, ops []relayOp) {
	step := 0
	logStep := func() {
		rs.log = append(rs.log, relayStep{idx, step, rs.sh.Now(), p})
		step++
	}
	logStep()
	for _, op := range ops {
		switch op.kind {
		case 'c':
			p.Charge(op.d)
			logStep()
		case 'p':
			st.parked = true
			p.Park()
			logStep()
		case 'a':
			rs.sh.After(op.d, func() { rs.act(op.cb, op.k) })
		default:
			rs.act(op.kind, op.k)
		}
	}
}

// relayHook marks every span end in the shards' logs: Barrier runs between
// spans with every shard quiescent.
type relayHook struct {
	*toyNet
	mark func()
}

func (h relayHook) Barrier() { h.mark() }

// relayRun is what one engine made of a program.
type relayRun struct {
	shards   []*relayShard
	model    relayModel // over every shard's log
	switches uint64
	handoffs uint64
	err      error // from Run or RunUntil
	panicked any   // re-raised by Run or RunUntil
	goexited bool  // the goroutine calling Run exited instead
}

// run plays prog on every shard of a cfg engine and checks what must hold of
// any program: the chain is empty and pending nil after every Run and
// RunUntil, Switches is the model's count exactly and at most twice
// Handoffs, and Shutdown leaves no goroutine. With steady set, no RunUntil
// after the first may change the goroutine count.
func (prog *relayProg) run(t testing.TB, cfg ShardConfig, steady bool) *relayRun {
	t.Helper()
	before := runtime.NumGoroutine()
	e := NewShardedConfig(7, cfg)
	r := &relayRun{}
	mark := func() {
		for _, rs := range r.shards {
			rs.log = append(rs.log, relayStep{})
		}
	}
	if e.Shards() > 1 {
		e.SetWindowHook(relayHook{newToyNet(e, e.Shards(), 5*relayTick/2, 0), mark})
	}
	for i := 0; i < e.Shards(); i++ {
		rs := &relayShard{sh: e.Shard(i), prog: prog}
		r.shards = append(r.shards, rs)
		for k := 0; k < prog.start; k++ {
			rs.act('s', k)
		}
	}
	// drive makes one Run or RunUntil call. A program that calls Goexit gets
	// a goroutine of its own for it, for the chain to end instead of the test.
	drive := func(call func() error) bool {
		done := make(chan bool, 1)
		guarded := func() {
			returned := false
			defer func() {
				if !returned {
					r.panicked = recover()
				}
				done <- returned
			}()
			r.err = call()
			returned = true
		}
		if prog.has('G') {
			go guarded()
		} else {
			guarded()
		}
		if !<-done && r.panicked == nil {
			r.goexited = true
			return false
		}
		if !e.sharded() {
			mark()
		}
		for _, rs := range r.shards {
			if rs.sh.pending != nil {
				t.Errorf("pending = %s after the run returned", rs.sh.pending.Name())
			}
			for idx, st := range rs.procs {
				if st.p.calling {
					t.Errorf("p%d's coroutine is still calling after the run returned", idx)
				}
			}
		}
		if !prog.has('!') && (r.err != nil || r.panicked != nil) {
			t.Errorf("the run failed: error %v, panic %v", r.err, r.panicked)
		}
		return r.err == nil && r.panicked == nil
	}
	goroutines, ok := 0, true
	for call, d := range prog.until {
		if ok = drive(func() error { return e.RunUntil(d) }); !ok {
			break
		}
		// A coroutine made by a RunUntil would grow the count; it may fall,
		// as an earlier drive's or subtest's goroutine finishes exiting.
		if n := runtime.NumGoroutine(); call == 0 {
			goroutines = n
		} else if steady && n > goroutines {
			t.Errorf("after RunUntil %d: %d goroutines, %d after the first", call, n, goroutines)
		}
	}
	if ok {
		drive(e.Run)
	}
	for _, rs := range r.shards {
		r.model.replay(rs.log)
	}
	r.switches, r.handoffs = e.Switches(), e.Handoffs()
	if r.switches != r.model.switches {
		t.Errorf("Switches() = %d, the stack model makes %d", r.switches, r.model.switches)
	}
	if r.switches > 2*r.handoffs {
		t.Errorf("Switches() = %d for %d handoffs: more than two each", r.switches, r.handoffs)
	}
	e.Shutdown()
	slack := 1 // drive's goroutine, or a subtest's, may still be on its way out
	if e.sharded() {
		slack += e.Shards()
	}
	if after := runtime.NumGoroutine(); after > before+slack {
		t.Errorf("%d goroutines after Shutdown, %d before New", after, before)
	}
	if e.Live() != 0 {
		t.Errorf("live after Shutdown = %d", e.Live())
	}
	return r
}

// steps is the shard's log without the end marks and coroutines.
func (rs *relayShard) steps() []relayStep {
	var out []relayStep
	for _, s := range rs.log {
		if s.co != nil {
			out = append(out, relayStep{proc: s.proc, step: s.step, at: s.at})
		}
	}
	return out
}

// relayConfigs are the sequential engine and both sharded widths.
var relayConfigs = []ShardConfig{{Shards: 1}, {Shards: 2}, {Shards: 2, Mode: Optimistic}}

// check plays prog under cfg and requires every step to have run once, in
// queue order. A sequential engine matches the oracle exactly. The shards of
// a sharded engine do too, unless the program ends early: Stop then waits
// for the span to commit and a failure on one shard aborts the other
// wherever it is, so each log is only a prefix of the oracle's.
func (prog *relayProg) check(t testing.TB, cfg ShardConfig, steady bool) *relayRun {
	t.Helper()
	r := prog.run(t, cfg, steady)
	want := relayExpect(prog, true)
	free := relayExpect(prog, false)
	for i, rs := range r.shards {
		got := rs.steps()
		switch {
		case cfg.Shards <= 1 || len(free) == len(want) && r.err == nil && r.panicked == nil:
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shard %d ran\n %v\nthe queue order is\n %v", i, got, want)
			}
		case len(got) > len(free) || !reflect.DeepEqual(got, free[:len(got)]):
			t.Errorf("shard %d ran\n %v\nnot a prefix of the queue order\n %v", i, got, free)
		}
	}
	return r
}

// deep3 puts p2 at the tip of a chain three calls deep — p0 is switched to
// by the trampoline, p1 by p0's tenure, p2 by p1's — and then has it do what.
func deep3(what string) []string { return []string{"c10", "c20", what} }

func TestRelayMatchesStackModel(t *testing.T) {
	ticks := func(ns ...int) (out []Time) {
		for _, n := range ns {
			out = append(out, Time(n)*Time(relayTick))
		}
		return out
	}
	rot := "c5 c5 c5 c5 c5 c5 c5 c5"
	for _, tc := range []struct {
		name    string
		start   int
		until   []Time
		scripts []string
		steady  bool
		// Of the sequential engine, worked out by hand (all zero: not
		// pinned): switches and handoffs, and the depth of the chain when
		// each run ended.
		switches, handoffs uint64
		ends               []int
		seq                func(t *testing.T, r *relayRun) // further checks on it
	}{
		{name: "ping-pong: control returns the way it went",
			start: 2, scripts: []string{"c2 c2 c2 c2 c2 c2", "c2 c2 c2 c2 c2 c2"},
			// One switch per handoff: p1's next when p0's tenure dispatches it,
			// p1's yield when its own dispatches p0; plus the last unwind.
			switches: 14 + 2, handoffs: 14, ends: []int{2}},
		{name: "strict rotation: control never returns",
			start: 5, scripts: []string{rot, rot, rot, rot, rot},
			// Each round p0 is reached by four yields and the others by a next
			// each: 8 switches for 5 handoffs, 2 - 2/n. The first round is five
			// nexts; the last ends five deep.
			switches: 5 + 8*8 + 5, handoffs: 5 * 9, ends: []int{5}},
		{name: "strict rotation past the chain's bound",
			start: 20, scripts: slices.Repeat([]string{"c5 c5 c5"}, 20),
			// The chain stops at maxChain, 16: p16 to p19 each take the tip's
			// yield and a next from the process below, p0 fifteen yields, and
			// p1 to p15 a next each. Still 2n - 2 a round, and never deeper.
			switches: (16 + 4*2) + 3*(15+15+4*2) + 16, handoffs: 20 * 4, ends: []int{16},
			seq: func(t *testing.T, r *relayRun) {
				if r.model.maxDepth != maxChain {
					t.Errorf("the chain got %d deep, want the bound %d", r.model.maxDepth, maxChain)
				}
			}},
		{name: "request and response nested 3 deep",
			start: 3, scripts: []string{"c1 u1 p c1 u1 p c1 u1 p", "p u2 p u0 p u2 p u0 p u2 p u0", "p c1 u1 p c1 u1 p c1 u1"},
			// Set-up: 3 nexts, 2 yields back to p0. Then every call and every
			// reply is one switch: p0 -> p1 -> p2 -> p1 -> p0, three times. The
			// servers end parked, p0 alone on the chain.
			switches: 5 + 3*4 + 1, handoffs: 3 + 1 + 3*4, ends: []int{1}},
		{name: "target is the direct caller",
			start: 2, scripts: []string{"c2 c2", "c1 c2"},
			// p1's second charge crosses p0's resume, and its exit p0's second:
			// a yield each, with p0 calling p1 back in between.
			switches: 2 + 3 + 1, handoffs: 5, ends: []int{1}},
		{name: "target is the root-most process",
			start: 4, scripts: []string{"c5", "c6", "c7", "c8"},
			// Four nexts, then p3's tenure dispatches p0: three yields.
			switches: 4 + 3 + 3 + 4, handoffs: 4 + 4, ends: []int{4}},
		{name: "Stop from a process 3 deep",
			start: 3, scripts: deep3("c5 S c1 c1"),
			switches: 6, handoffs: 3, ends: []int{3}},
		{name: "Stop from a callback 3 deep",
			start: 3, scripts: deep3("a5S c9 c1"),
			switches: 6, handoffs: 3, ends: []int{3}},
		{name: "RunUntil deadlines with the chain 4 deep, resumed five times",
			start: 4, until: ticks(10, 30, 50, 70, 90), steady: true,
			scripts: []string{"c20 c20 c20 c20 c20", "c1 c20 c20 c20 c20", "c2 c20 c20 c20 c20", "c3 c20 c20 c20 c20"},
			// The four run one tick apart every 20 and each deadline falls after
			// p3, four deep: four yields, and the next RunUntil's trampoline
			// calls p0 afresh. The first run also starts them and unwinds to p1
			// (4 + 2 + 2 nexts and yields); the final Run is p0's last step.
			switches: 8 + 4 + 4*(4+4) + 2, handoffs: 7 + 4*4 + 1, ends: []int{4, 4, 4, 4, 4, 1}},
		{name: "body panic 3 deep",
			start: 3, scripts: deep3("c5 ! c1"),
			switches: 6, handoffs: 3, ends: []int{3},
			seq: func(t *testing.T, r *relayRun) {
				var pe *PanicError
				if !errors.As(r.err, &pe) || pe.Proc != "p2" || pe.Value != "boom" {
					t.Errorf("Run = %v, want *PanicError from p2", r.err)
				}
			}},
		{name: "kernel-callback panic 3 deep",
			start: 3, scripts: deep3("a5! c9 c1"),
			switches: 6, handoffs: 3, ends: []int{3},
			seq: func(t *testing.T, r *relayRun) {
				if r.panicked != "boom" {
					t.Errorf("Run re-raised %v on its caller's goroutine, want the callback's panic", r.panicked)
				}
			}},
		{name: "respawn from a process",
			start: 1, scripts: []string{"c1 s1 c3 s1 c3 s1 c3", "c1"},
			seq: func(t *testing.T, r *relayRun) {
				if ps := r.shards[0].procs; len(ps) != 4 || ps[1].p != ps[2].p || ps[2].p != ps[3].p {
					t.Error("the children did not recycle one pooled coroutine")
				}
			}},
		{name: "respawn from a callback within the pooled coroutine's own tenure",
			start: 1, scripts: []string{"a2s1", "c1 a1s1"},
			// p0 exits and its coroutine, still the kernel, fires the callback
			// that respawns onto it: every incarnation finds itself in pending.
			seq: func(t *testing.T, r *relayRun) {
				ps := r.shards[0].procs
				if len(ps) != relayMaxProcs || r.switches != 2 || r.handoffs != relayMaxProcs {
					t.Errorf("%d incarnations, %d switches, %d handoffs; want %d, the trampoline's 2, %d",
						len(ps), r.switches, r.handoffs, relayMaxProcs, relayMaxProcs)
				}
			}},
		{name: "respawn from a process onto a pooled coroutine mid-chain",
			start: 2, scripts: []string{"c1 s2 c9", "p s3 c1 c1", "u1", "c1"},
			// p0 spawns p2, which wakes p1 and exits; its coroutine calls p1's
			// next and waits, pooled, in the chain. p1 respawns onto it: p3's
			// dispatch unwinds one call and finds the coroutine there.
			seq: relayMidChainRespawn},
		{name: "respawn from a callback onto a pooled coroutine mid-chain",
			start: 2, scripts: []string{"c1 s2 c9", "p a0s3 c1 c1", "u1", "c1"},
			seq: relayMidChainRespawn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := newRelayProg(tc.start, tc.until, tc.scripts...)
			atProcs(t, func(t *testing.T) {
				for _, cfg := range relayConfigs {
					r := prog.check(t, cfg, tc.steady)
					if cfg.Shards > 1 {
						continue
					}
					if tc.handoffs != 0 && (r.switches != tc.switches || r.handoffs != tc.handoffs || !slices.Equal(r.model.ends, tc.ends)) {
						t.Errorf("%d switches, %d handoffs, runs ended %v deep; want %d, %d, %v",
							r.switches, r.handoffs, r.model.ends, tc.switches, tc.handoffs, tc.ends)
					}
					if tc.seq != nil {
						tc.seq(t, r)
					}
				}
			})
		})
	}
}

// relayMidChainRespawn: p3 runs on p2's coroutine, and got it by an unwind —
// one yield — not by a next: the chain was 3 deep and is 2 deep under p3.
func relayMidChainRespawn(t *testing.T, r *relayRun) {
	ps := r.shards[0].procs
	if len(ps) != 4 || ps[2].p != ps[3].p {
		t.Fatal("p3 did not recycle p2's coroutine")
	}
	if r.model.maxDepth != 3 || r.switches != 4+1+1+3+3 {
		// p0, p1, back to p0, p2: four. p1 called from the pooled p2: one. p3: one
		// yield. p1 and p3 alternate: next, yield, next. p0's resume, from p1's
		// post-exit tenure: two yields; the end of the run: one.
		t.Errorf("chain %d deep at most, %d switches; want 3 and 12", r.model.maxDepth, r.switches)
	}
}

// TestRelayGoexit: runtime.Goexit in a process three calls deep travels down
// the chain — iter.Pull re-raises it in each caller — and ends the goroutine
// that called Run. Every coroutine it passed through is finished; Shutdown
// still reaps the rest.
func TestRelayGoexit(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		prog := newRelayProg(4, nil, append(deep3("c5 G c1"), "p")...)
		r := prog.run(t, ShardConfig{Shards: 1}, false)
		if !r.goexited || len(r.model.stack) != 3 || r.switches != 5 {
			// p3 started and parked inside p2's first tenure: a next and a yield.
			t.Fatalf("goexited = %v, chain %d deep, %d switches; want true, 3, 5", r.goexited, len(r.model.stack), r.switches)
		}
		if got, want := r.shards[0].steps(), relayExpect(prog, true); !reflect.DeepEqual(got, want) {
			t.Errorf("ran\n %v\nthe queue order is\n %v", got, want)
		}
	})
}

// fuzzRelayProg decodes a program: up to 16 scripts of up to 12 steps, two
// bytes a step, dealt round robin from stream, the first few started at
// setup; a Stop callback at stop quarter-ticks (0: none); RunUntil deadlines
// from the gaps in until, in half-ticks.
func fuzzRelayProg(n uint8, stream []byte, stop uint16, until []byte) *relayProg {
	scripts := 2 + int(n%15)
	prog := &relayProg{scripts: make([][]relayOp, scripts), start: min(scripts, 2+int(n>>4)%7)}
	for i := 0; 2*i+1 < len(stream) && i < 12*scripts; i++ {
		b, arg := stream[2*i], stream[2*i+1]
		op := relayOp{kind: "cccpusac"[b%8], cb: "su"[b>>3%2], d: Duration(arg%8) * relayTick, k: int(arg>>3) % scripts}
		if op.kind == 'u' || op.kind == 'a' && op.cb == 'u' {
			op.k = int(arg>>3) % 16
		}
		prog.scripts[i%scripts] = append(prog.scripts[i%scripts], op)
	}
	if stop != 0 {
		prog.scripts[0] = append([]relayOp{{kind: 'a', d: Duration(stop%512) * relayTick / 4, cb: 'S'}}, prog.scripts[0]...)
	}
	var at Time
	for i := 0; i < len(until) && i < 6; i++ {
		at += Time(until[i]) * Time(relayTick) / 2
		prog.until = append(prog.until, at)
	}
	return prog
}

func FuzzRelay(f *testing.F) {
	// The table's shapes are the checked-in corpus (testdata/fuzz); this is
	// two processes with nothing to do.
	f.Add(uint8(0), []byte{}, uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, stream []byte, stop uint16, until []byte) {
		prog := fuzzRelayProg(n, stream, stop, until)
		for _, cfg := range relayConfigs {
			prog.check(t, cfg, false)
		}
	})
}
