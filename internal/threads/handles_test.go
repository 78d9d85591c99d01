package threads

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cm5"
	"repro/internal/sim"
)

// The handle model: random programs of create / block / wake / exit and
// Join / Done / Resume on live and long-dead handles, run twice — once as
// shipped, once against a reference that never recycles a descriptor (the
// harness empties the free list before every creation) — and compared on
// every answer, the start order, Stats, the schedule (a tracer that reads
// process names, which are thread names) and every virtual instant. Each
// run also checks itself against a model that knows which logical thread
// (tenant) every wake is meant for: a thread that leaves a wait the model
// did not end has been woken through someone else's registration.

// hop is one step of a script; a and b are its operands.
type hop struct{ kind, a, b byte }

const (
	hCharge     = iota // compute for a us
	hYield             //
	hSleep             // block on a timer for a us
	hCreate            // create a thread running script a, at the front if b is odd
	hTimerBoot         // b us from now, Bootstrap a thread running script a from kernel context
	hLend              // lend the CPU to an execution that adopts itself and runs script a
	hFlagWait          // wait on flag a
	hFlagSet           // set flag a
	hCondWait          //
	hCondSignal        // broadcast if b is odd
	hLockHold          // hold the shared mutex across a sleep of a us
	hBlock             // Block until some hResume names this thread
	hResume            // Resume thread a if the model says it is in hBlock; must panic if it has exited
	hJoin              // Join thread a
	hDone              // ask thread a's handle whether it is done
	hCollective        // barrier, reduction or split-phase OR (a mod 3) with node 1's companions
)

const (
	hopsPerScript = 8
	maxScripts    = 8
	maxThreads    = 40
	numFlags      = 4
)

// hopMix weights the draw of a hop's kind towards creations and questions
// asked of handles, which are what a short random script needs most of to
// get a descriptor through several tenants and then ask about the first.
var hopMix = [...]byte{
	hCreate, hCreate, hCreate, hCreate, hTimerBoot, hLend,
	hDone, hDone, hDone, hJoin, hJoin, hResume, hResume, hBlock,
	hFlagWait, hFlagSet, hCondWait, hCondSignal, hLockHold,
	hSleep, hSleep, hSleep, hCharge, hYield, hCollective, hCollective,
}

// decode cuts fuzz input into scripts of hopsPerScript hops, three bytes a
// hop. Script 0 is the main thread's.
func decode(data []byte) [][]hop {
	var scripts [][]hop
	for len(data) >= 3 && len(scripts) < maxScripts {
		var sc []hop
		for len(data) >= 3 && len(sc) < hopsPerScript {
			sc = append(sc, hop{hopMix[int(data[0])%len(hopMix)], data[1], data[2]})
			data = data[3:]
		}
		scripts = append(scripts, sc)
	}
	return scripts
}

func encode(scripts ...[]hop) []byte {
	var out []byte
	for _, sc := range scripts {
		if len(sc) > hopsPerScript {
			panic("script too long")
		}
		for len(sc) < hopsPerScript {
			sc = append(sc, hop{hCharge, 0, 0})
		}
		for _, h := range sc {
			out = append(out, byte(slices.Index(hopMix[:], h.kind)), h.a, h.b)
		}
	}
	return out
}

// nameTracer folds every scheduling transition, with the process's name as
// the kernel reads it at that moment, into one hash.
type nameTracer struct{ sum uint64 }

func (n *nameTracer) mix(kind byte, t sim.Time, p *sim.Proc) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %c %d %s", n.sum, kind, t, p.Name())
	n.sum = h.Sum64()
}
func (n *nameTracer) Resume(t sim.Time, p *sim.Proc) { n.mix('r', t, p) }
func (n *nameTracer) Yield(t sim.Time, p *sim.Proc)  { n.mix('y', t, p) }
func (n *nameTracer) Exit(t sim.Time, p *sim.Proc)   { n.mix('x', t, p) }

// handleRun is one execution of a program.
type handleRun struct {
	eng     *sim.Engine
	s       *Scheduler
	scripts [][]hop
	recycle bool

	log    []string
	errs   []string
	reused int // creations that took a dead descriptor

	handles []Handle        // by logical thread, in creation order
	tenant  map[*Thread]int // the logical thread each descriptor holds now
	exited  []bool
	granted []bool // the model has ended this thread's current wait
	inBlock []bool // the thread is inside hBlock, not yet resumed

	flags    [numFlags]*Flag
	flagWait [numFlags]bool
	mu, hold *Mutex
	cv       *Cond
	condQ    []int
	collBusy [3]bool
	rounds   [3]int
}

func (r *handleRun) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("%d ", r.eng.Now())+fmt.Sprintf(format, args...))
}

func (r *handleRun) errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf("%d ", r.eng.Now())+fmt.Sprintf(format, args...))
}

// admit is called right before a creation and numbers the new logical
// thread, or returns -1 once the program has had its share. The reference
// run never finds a descriptor to reuse. (A creation charges before it takes
// its descriptor, and a kernel-context Bootstrap may number its own thread
// meanwhile: hence numbered first, bound after.)
func (r *handleRun) admit() int {
	id := len(r.handles)
	if id >= maxThreads {
		return -1
	}
	if !r.recycle {
		r.s.free = nil
	} else if r.s.free != nil {
		r.reused++
	}
	r.handles = append(r.handles, Handle{})
	r.exited = append(r.exited, false)
	r.granted = append(r.granted, false)
	r.inBlock = append(r.inBlock, false)
	return id
}

// bind records the handle of logical thread id, now the tenant of h.t.
func (r *handleRun) bind(id int, h Handle) {
	r.handles[id] = h
	r.tenant[h.t] = id
}

func threadName(id int) string { return fmt.Sprintf("t%d", id) }

// body returns the body of logical thread id: it runs script sc.
func (r *handleRun) body(id, sc int) func(Ctx) {
	return func(c Ctx) { r.life(c, id, sc) }
}

func (r *handleRun) life(c Ctx, id, sc int) {
	r.logf("start %d", id)
	r.script(c, id, r.scripts[sc%len(r.scripts)])
	r.mine(c, id, "exit")
	r.exited[id] = true
	r.logf("exit %d", id)
}

// mine checks that the descriptor of the running thread still holds it.
func (r *handleRun) mine(c Ctx, id int, where string) {
	if got := r.tenant[c.T]; got != id {
		r.errorf("thread %d at %s: its descriptor holds thread %d", id, where, got)
	}
	if r.s.Running() != c.T {
		r.errorf("thread %d at %s: not the running thread", id, where)
	}
}

// woke checks that the model ended the wait thread id just left.
func (r *handleRun) woke(c Ctx, id int, what string) {
	if !r.granted[id] {
		r.errorf("thread %d left %s that nobody ended: a wake meant for another tenant", id, what)
	}
	r.granted[id] = false
	r.mine(c, id, what)
}

func (r *handleRun) script(c Ctx, id int, sc []hop) {
	s := r.s
	for _, h := range sc {
		switch h.kind {
		case hCharge:
			c.P.Charge(sim.Micros(float64(h.a % 64)))
		case hYield:
			s.Yield(c)
		case hSleep:
			due := c.P.Now().Add(sim.Micros(float64(h.a)))
			s.Sleep(c, sim.Micros(float64(h.a)))
			if c.P.Now() < due {
				r.errorf("thread %d woke from sleep at %v, before %v", id, c.P.Now(), due)
			}
			r.mine(c, id, "sleep")
		case hCreate:
			if got := r.admit(); got >= 0 {
				r.bind(got, s.Create(c, threadName(got), h.b&1 == 1, r.body(got, int(h.a))))
				r.logf("create %d by %d", got, id)
			}
		case hTimerBoot:
			sc := int(h.a)
			r.eng.After(sim.Micros(float64(h.b)), func() {
				if got := r.admit(); got >= 0 {
					r.bind(got, s.Bootstrap(threadName(got), r.body(got, sc)))
					r.logf("boot %d", got)
				}
			})
		case hLend:
			got := r.admit()
			if got < 0 {
				break
			}
			sc := int(h.a)
			s.Lend(r.eng.Spawn("lent", func(p *sim.Proc) {
				bc := Ctx{P: p, S: s}
				t := s.Adopt(Name{Base: threadName(got)}, p)
				r.bind(got, Handle{t, t.gen})
				r.logf("adopt %d by %d", got, id)
				bc.T = t
				s.DetachReady(bc)
				r.life(bc, got, sc)
				s.FinishAdopted(bc)
			}))
			c.P.Park() // until the execution detaches
			r.mine(c, id, "lend")
		case hFlagWait:
			f := int(h.a) % numFlags
			if r.flagWait[f] {
				break // a flag takes one waiter
			}
			fl := r.flags[f]
			r.flagWait[f] = true
			fl.Wait(c)
			if !fl.IsSet() {
				r.errorf("thread %d left flag %d unset: a wake meant for another tenant", id, f)
			}
			r.mine(c, id, "flag")
			r.flags[f], r.flagWait[f] = &Flag{}, false
		case hFlagSet:
			if f := int(h.a) % numFlags; !r.flags[f].IsSet() {
				r.flags[f].Set()
			}
		case hCondWait:
			r.mu.Lock(c)
			r.condQ = append(r.condQ, id)
			r.cv.Wait(c)
			r.woke(c, id, "cond")
			r.mu.Unlock(c)
		case hCondSignal:
			r.mu.Lock(c)
			if h.b&1 == 1 {
				for _, w := range r.condQ {
					r.granted[w] = true
				}
				r.condQ = r.condQ[:0]
				r.cv.Broadcast(c)
			} else {
				if len(r.condQ) > 0 {
					r.granted[r.condQ[0]] = true
					r.condQ = r.condQ[1:]
				}
				r.cv.Signal(c)
			}
			r.mu.Unlock(c)
		case hLockHold:
			r.hold.Lock(c) // a false wake panics inside Lock: no ownership
			s.Sleep(c, sim.Micros(float64(h.a%32)))
			r.hold.Unlock(c)
			r.mine(c, id, "lock")
		case hBlock:
			r.inBlock[id] = true
			s.Block(c)
			r.woke(c, id, "block")
		case hResume:
			target := int(h.a) % len(r.handles)
			switch {
			case r.inBlock[target]:
				r.inBlock[target], r.granted[target] = false, true
				r.handles[target].Resume(h.b&1 == 1)
			case r.exited[target]:
				if !panics(func() { r.handles[target].Resume(false) }) {
					r.errorf("thread %d resumed exited thread %d without a panic", id, target)
				}
			}
		case hJoin:
			target := int(h.a) % len(r.handles)
			if target == id {
				break
			}
			r.logf("join %d by %d, done=%v", target, id, r.handles[target].Done())
			r.handles[target].Join(c)
			if !r.exited[target] {
				r.errorf("thread %d joined thread %d, which has not exited", id, target)
			}
			r.mine(c, id, "join")
			r.logf("joined %d by %d", target, id)
		case hDone:
			target := int(h.a) % len(r.handles)
			got := r.handles[target].Done()
			if got != r.exited[target] {
				r.errorf("Done(%d) = %v, the thread's exit says %v", target, got, r.exited[target])
			}
			r.logf("done %d = %v", target, got)
		case hCollective:
			k := int(h.a) % 3
			if r.collBusy[k] {
				break // one wait per node and primitive at a time
			}
			r.collBusy[k] = true
			round := r.rounds[k]
			r.rounds[k]++
			switch k {
			case 0:
				s.Barrier(c)
			case 1:
				want := float64(h.b) + 1000*float64(round)
				if got := s.Reduce(c, float64(h.b), cm5.ReduceSum); got != want {
					r.errorf("thread %d: reduction %d gave %v, want %v", id, round, got, want)
				}
			case 2:
				s.OREnter(h.b&1 == 1)
				if got := s.ORWait(c); got != (h.b&1 == 1 || round%2 == 1) {
					r.errorf("thread %d: OR round %d gave %v", id, round, got)
				}
			}
			r.collBusy[k] = false
			r.mine(c, id, "collective")
			r.logf("collective %d round %d by %d", k, round, id)
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// handleResult is what two runs of one program must agree on.
type handleResult struct {
	log     []string
	errs    []string
	stats   Stats
	end     sim.Time
	trace   uint64
	blocked []string
	reused  int
}

func runHandles(data []byte, recycle bool) (res handleResult, err error) {
	scripts := decode(data)
	if len(scripts) == 0 {
		return handleResult{}, nil
	}
	eng := sim.New(1)
	defer eng.Shutdown()
	defer func() {
		if p := recover(); p != nil { // Run re-raises a panic in kernel context
			err = fmt.Errorf("kernel: %v", p)
		}
	}()
	tr := &nameTracer{}
	eng.SetTracer(tr)
	m := cm5.NewMachine(eng, 2, cm5.DefaultCostModel())
	r := &handleRun{eng: eng, s: NewScheduler(m.Node(0)), scripts: scripts, recycle: recycle,
		tenant: make(map[*Thread]int)}
	for i := range r.flags {
		r.flags[i] = &Flag{}
	}
	r.mu, r.hold = NewMutex(r.s), NewMutex(r.s)
	r.cv = NewCond(r.mu)
	// Node 1 keeps one companion per primitive in the collective, forever.
	s1 := NewScheduler(m.Node(1))
	s1.Bootstrap("barrier", func(c Ctx) {
		for {
			s1.Barrier(c)
		}
	})
	s1.Bootstrap("reduce", func(c Ctx) {
		for i := 0; ; i++ {
			s1.Reduce(c, 1000*float64(i), cm5.ReduceSum)
		}
	})
	s1.Bootstrap("or", func(c Ctx) {
		for i := 0; ; i++ {
			s1.OREnter(i%2 == 1)
			s1.ORWait(c)
		}
	})
	r.bind(r.admit(), r.s.Bootstrap(threadName(0), r.body(0, 0)))
	err = eng.Run()
	return handleResult{r.log, r.errs, r.s.Stats(), eng.Now(), tr.sum, r.s.Blocked(), r.reused}, err
}

// checkHandles runs data both ways and reports the first disagreement, or
// the first thing either run's model objected to.
func checkHandles(data []byte) (reused int, err error) {
	got, err := runHandles(data, true)
	if err != nil {
		return 0, fmt.Errorf("recycling run: %v", firstLine(err))
	}
	want, err := runHandles(data, false)
	if err != nil {
		return 0, fmt.Errorf("reference run: %v", firstLine(err))
	}
	switch {
	case len(got.errs) > 0:
		return 0, fmt.Errorf("recycling run: %s", got.errs[0])
	case len(want.errs) > 0:
		return 0, fmt.Errorf("reference run: %s", want.errs[0])
	case want.reused != 0:
		return 0, fmt.Errorf("reference run reused %d descriptors", want.reused)
	case !slices.Equal(got.log, want.log):
		for i := range got.log {
			if i >= len(want.log) || got.log[i] != want.log[i] {
				return 0, fmt.Errorf("logs part at line %d: %q, reference %q", i, got.log[i], append(want.log, "<end>")[min(i, len(want.log))])
			}
		}
		return 0, fmt.Errorf("log ends at line %d, reference goes on: %q", len(got.log), want.log[len(got.log)])
	case got.stats != want.stats:
		return 0, fmt.Errorf("stats %+v, reference %+v", got.stats, want.stats)
	case got.end != want.end:
		return 0, fmt.Errorf("ended at %v, reference at %v", got.end, want.end)
	case got.trace != want.trace:
		return 0, fmt.Errorf("schedule hash %x, reference %x: a process ran under another thread's name", got.trace, want.trace)
	case !slices.Equal(got.blocked, want.blocked):
		return 0, fmt.Errorf("blocked at the end %v, reference %v", got.blocked, want.blocked)
	}
	return got.reused, nil
}

// firstLine drops the stack from a process's panic report.
func firstLine(err error) string {
	line, _, _ := strings.Cut(err.Error(), "\n")
	return line
}

// handlePrograms are written against the three ways recycling can go wrong.
var handlePrograms = map[string][]byte{
	// Handles to threads long dead, whose descriptor has had later tenants
	// that are alive (blocked) when the handles are asked.
	"stale handle, live tenant": encode(
		[]hop{{hCreate, 1, 0}, {hSleep, 5, 0}, {hCreate, 2, 0}, {hSleep, 5, 0}, {hDone, 1, 0}, {hJoin, 1, 0}, {hResume, 1, 0}, {hResume, 2, 0}},
		[]hop{{hCharge, 1, 0}},
		[]hop{{hBlock, 0, 0}, {hDone, 1, 0}},
	),
	// Thread 2 joins thread 1; thread 3 then takes 1's descriptor and exits
	// while 2 is blocked on a flag: a joiner list that survived would wake 2.
	"joiners do not survive": encode(
		[]hop{{hCreate, 1, 0}, {hCreate, 2, 0}, {hSleep, 40, 0}, {hCreate, 1, 0}, {hSleep, 40, 0}, {hFlagSet, 0, 0}},
		[]hop{{hSleep, 10, 0}},
		[]hop{{hJoin, 1, 0}, {hFlagWait, 0, 0}},
	),
	// Thread 1 dies handing the CPU to a suspended thread, which costs it a
	// restore half; a kernel-context Bootstrap lands inside that charge. A
	// descriptor retired before the handover would be renamed under it.
	"creation during the dying thread's last charge": encode(
		[]hop{{hCreate, 1, 0}, {hFlagWait, 0, 0}, {hSleep, 60, 0}, {hCreate, 2, 0}},
		[]hop{{hTimerBoot, 2, 20}, {hFlagSet, 0, 0}, {hCharge, 10, 0}},
		[]hop{{hCharge, 1, 0}},
	),
	// Every wake source once, and a collective from a recycled descriptor.
	"each wake source": encode(
		[]hop{{hCreate, 1, 0}, {hCreate, 2, 1}, {hLend, 3, 0}, {hSleep, 90, 0}, {hCondSignal, 0, 1}, {hResume, 1, 0}, {hCreate, 3, 0}, {hJoin, 4, 0}},
		[]hop{{hBlock, 0, 0}, {hCollective, 1, 7}, {hLockHold, 9, 0}},
		[]hop{{hCondWait, 0, 0}, {hCollective, 0, 0}, {hLockHold, 9, 0}, {hCollective, 2, 1}},
		[]hop{{hCollective, 1, 3}, {hCollective, 2, 0}, {hDone, 1, 0}},
	),
}

// TestThreadHandlesTable runs the written programs and a fixed draw of
// random ones through the handle model.
func TestThreadHandlesTable(t *testing.T) {
	reused := 0
	for name, data := range handlePrograms {
		n, err := checkHandles(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if n == 0 {
			t.Errorf("%s: no descriptor was reused", name)
		}
		reused += n
	}
	rng := rand.New(rand.NewSource(24))
	failed := 0
	for i := 0; i < 400; i++ {
		data := make([]byte, 3*hopsPerScript*(2+rng.Intn(maxScripts-1)))
		rng.Read(data)
		n, err := checkHandles(data)
		if err != nil {
			failed++
			t.Errorf("random program %d (%x): %v", i, data, err)
		}
		reused += n
	}
	t.Logf("%d descriptors reused; %d of 400 random programs failed", reused, failed)
}

func FuzzThreadHandles(f *testing.F) {
	for _, data := range handlePrograms {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := checkHandles(data); err != nil {
			t.Fatal(err)
		}
	})
}
