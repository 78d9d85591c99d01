package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/obs"
	"repro/internal/reliable"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// The ladder attributes the host time of a null ORPC round trip to the
// layers it crosses. Each rung is a 2-node ping-pong storm built only
// from the public API of one layer and the layers beneath it, doing what
// the rung above does beneath its own layer: the sender injects and
// sleeps until the reply wakes it, the receiver sleeps until a delivery
// wakes it and answers. A layer's self time is its rung's round trip
// minus the rung beneath (span minus child), so the self times sum to
// the top rung with no residual by construction, and a regression names
// the rung where it first appears.

// storm is one timed batch of a rung.
type storm struct {
	wall    time.Duration
	events  uint64
	mallocs uint64
}

// timeRun times run, with the allocation counters read outside the
// timed span. eng is nil for a storm with no simulation under it.
func timeRun(eng *sim.Engine, run func() error) storm {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := run()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		panic(fmt.Sprintf("bench: ladder storm failed: %v", err))
	}
	s := storm{wall: wall, mallocs: m1.Mallocs - m0.Mallocs}
	if eng != nil {
		s.events = eng.Events()
	}
	return s
}

// rung is one storm of the ladder or one single-layer micro storm; unit
// is how many measured operations one trip contains.
type rung struct {
	name string
	unit float64
	run  func(trips int) storm
}

var rungs = []rung{
	{"sim.handoff", 2, simHandoff},
	{"sim.inline", 1, simInline},
	{"sim.timer", 1, simTimer},
	{"sim.spawn", 1, simSpawn},
	{"sim", 1, simRung},
	{"cm5", 1, cm5Rung},
	{"threads", 1, threadsRung},
	{"threads.create_exit", 1, threadsCreateExit},
	{"threads.yield", 2, threadsYield},
	{"am", 1, amRung},
	{"oam", 1, func(n int) storm { return oamRung(n, false) }},
	{"oam.promote", 1, func(n int) storm { return oamRung(n, true) }},
	{"rpc", 1, func(n int) storm { return rpcRung(n, rpc.ORPC, false, false) }},
	{"rpc.trpc", 1, func(n int) storm { return rpcRung(n, rpc.TRPC, false, false) }},
	{"reliable", 1, func(n int) storm { return rpcRung(n, rpc.ORPC, true, false) }},
	{"obs", 1, func(n int) storm { return rpcRung(n, rpc.ORPC, false, true) }},
	{"rpc.wire", 1, wireStorm},
}

// chain is the ladder proper, bottom rung first.
var chain = []string{"sim", "cm5", "threads", "am", "oam", "rpc"}

// ladderResult holds, per rung, the fast-decile host ns per unit and the
// exact events and allocations per trip.
type ladderResult struct {
	ns      map[string]float64
	events  map[string]float64
	mallocs map[string]float64
	batches int
}

// self is a chain rung's round trip minus the rung beneath it.
func (l *ladderResult) self(name string) float64 {
	for i, r := range chain {
		if r == name {
			if i == 0 {
				return l.ns[r]
			}
			return l.ns[r] - l.ns[chain[i-1]]
		}
	}
	panic("bench: " + name + " is not a ladder rung")
}

const ladderTrips = 1000

// runLadder cycles through every storm, one batch each per round, until
// budget is spent (at least minRounds rounds), so slow phases of the
// host hit every rung alike; each rung then reports its fast decile.
func runLadder(budget time.Duration, minRounds int, tr *tracer) *ladderResult {
	l := &ladderResult{ns: map[string]float64{}, events: map[string]float64{}, mallocs: map[string]float64{}}
	per := make([][]float64, len(rungs))
	root := tr.begin("ladder", time.Now(), 0)
	for start := time.Now(); l.batches < minRounds || time.Since(start) < budget; l.batches++ {
		runtime.GC()
		for i, r := range rungs {
			t0 := time.Now()
			s := r.run(ladderTrips)
			tr.span(r.name, t0, time.Since(t0), root)
			per[i] = append(per[i], float64(s.wall)/(ladderTrips*r.unit))
			l.events[r.name] = float64(s.events) / ladderTrips
			l.mallocs[r.name] = float64(s.mallocs) / ladderTrips
		}
	}
	tr.end(root, time.Now())
	for i, r := range rungs {
		l.ns[r.name] = quantile(per[i], 0.10)
	}
	return l
}

// ---- sim ------------------------------------------------------------

// The virtual costs the sim rung charges where cm5 would: the same
// event pattern, none of cm5's code.
var (
	rungSend = sim.Micros(1.6)
	rungRecv = sim.Micros(1.4)
	rungWire = sim.Micros(2.3)
)

// wake is a kernel action that resumes a parked process.
type wake struct{ p *sim.Proc }

func (w *wake) Run() {
	if w.p.Parked() {
		w.p.Unpark()
	}
}

func simRung(trips int) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	wakeA, wakeB := &wake{}, &wake{}
	wakeB.p = eng.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < trips; i++ {
			p.Park()
			p.Charge(rungRecv)
			p.Charge(rungSend)
			eng.AfterAction(rungWire, wakeA)
		}
	})
	wakeA.p = eng.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < trips; i++ {
			p.Charge(rungSend)
			eng.AfterAction(rungWire, wakeB)
			p.Park()
			p.Charge(rungRecv)
		}
	})
	return timeRun(eng, eng.Run)
}

// simHandoff is a bare Park/Unpark ping-pong: two handoffs per trip.
func simHandoff(trips int) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	var a, b *sim.Proc
	b = eng.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < trips; i++ {
			p.Park()
			a.Unpark()
		}
	})
	a = eng.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < trips; i++ {
			b.Unpark()
			p.Park()
		}
	})
	return timeRun(eng, eng.Run)
}

// tick is an action that reschedules itself: one inline kernel event
// per trip, no process involved.
type tick struct {
	eng  *sim.Engine
	left int
}

func (t *tick) Run() {
	if t.left--; t.left > 0 {
		t.eng.AfterAction(sim.Microsecond, t)
	}
}

func simInline(trips int) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	eng.AfterAction(sim.Microsecond, &tick{eng: eng, left: trips})
	return timeRun(eng, eng.Run)
}

// simTimer arms and cancels one timer per trip, the shape of a call
// deadline or a retransmit timer that never fires.
func simTimer(trips int) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	nop := func() {}
	eng.Spawn("timers", func(p *sim.Proc) {
		for i := 0; i < trips; i++ {
			t := p.Shard().AfterTimer(sim.Millisecond, nop)
			t.Cancel()
		}
	})
	return timeRun(eng, eng.Run)
}

func simSpawn(trips int) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	body := func(p *sim.Proc) {}
	return timeRun(eng, func() error {
		for i := 0; i < trips; i++ {
			eng.Spawn("p", body)
		}
		return eng.Run()
	})
}

// ---- cm5 ------------------------------------------------------------

func inject(p *sim.Proc, from *cm5.Node, dst int) {
	pkt := from.AllocPacket()
	pkt.Src, pkt.Dst, pkt.Kind = from.ID(), dst, cm5.Small
	for !from.TryInject(p, pkt) {
	}
}

func cm5Rung(trips int) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	m := cm5.NewMachine(eng, 2, cm5.DefaultCostModel())
	var procs [2]*sim.Proc
	for i := range procs {
		w := &wake{}
		m.Node(i).SetWake(func() {
			w.p = procs[i]
			w.Run()
		})
	}
	eject := func(p *sim.Proc, n *cm5.Node) {
		for n.Pending() == 0 {
			p.Park()
		}
		n.ReleasePacket(n.PollPacket(p))
	}
	procs[1] = eng.Spawn("server", func(p *sim.Proc) {
		for i := 0; i < trips; i++ {
			eject(p, m.Node(1))
			inject(p, m.Node(1), 0)
		}
	})
	procs[0] = eng.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < trips; i++ {
			inject(p, m.Node(0), 1)
			eject(p, m.Node(0))
		}
	})
	return timeRun(eng, eng.Run)
}

// ---- threads --------------------------------------------------------

type pollerFunc func(c threads.Ctx) bool

func (f pollerFunc) PollOnce(c threads.Ctx) bool { return f(c) }

// threadsRung puts a scheduler on each cm5 node: the client is a thread
// blocking on a flag, the server is the idle scheduler polling.
func threadsRung(trips int) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	m := cm5.NewMachine(eng, 2, cm5.DefaultCostModel())
	n0, n1 := m.Node(0), m.Node(1)
	s0, s1 := threads.NewScheduler(n0), threads.NewScheduler(n1)
	var reply *threads.Flag
	s0.SetPoller(pollerFunc(func(c threads.Ctx) bool {
		pkt := n0.PollPacket(c.P)
		if pkt == nil {
			return false
		}
		n0.ReleasePacket(pkt)
		reply.Set()
		return true
	}))
	s1.SetPoller(pollerFunc(func(c threads.Ctx) bool {
		pkt := n1.PollPacket(c.P)
		if pkt == nil {
			return false
		}
		n1.ReleasePacket(pkt)
		inject(c.P, n1, 0)
		return true
	}))
	s0.Bootstrap("main", func(c threads.Ctx) {
		for i := 0; i < trips; i++ {
			reply = new(threads.Flag)
			inject(c.P, n0, 1)
			reply.Wait(c)
		}
	})
	return timeRun(eng, eng.Run)
}

// threadsCreateExit creates a thread and joins it, once per trip: the
// live-stack start an idle server gives every TRPC call.
func threadsCreateExit(trips int) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	m := cm5.NewMachine(eng, 1, cm5.DefaultCostModel())
	s := threads.NewScheduler(m.Node(0))
	body := func(threads.Ctx) {}
	s.Bootstrap("main", func(c threads.Ctx) {
		for i := 0; i < trips; i++ {
			s.Create(c, "t", true, body).Join(c)
		}
	})
	return timeRun(eng, eng.Run)
}

// threadsYield bounces the CPU between two runnable threads: two full
// context switches per trip.
func threadsYield(trips int) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	m := cm5.NewMachine(eng, 1, cm5.DefaultCostModel())
	s := threads.NewScheduler(m.Node(0))
	stop := false
	s.Bootstrap("main", func(c threads.Ctx) {
		other := s.Create(c, "other", false, func(c threads.Ctx) {
			for !stop {
				s.Yield(c)
			}
		})
		for i := 0; i < trips; i++ {
			s.Yield(c)
		}
		stop = true
		other.Join(c)
	})
	return timeRun(eng, eng.Run)
}

// ---- am -------------------------------------------------------------

// pingPong runs the am-level client loop shared by the am and oam
// rungs: send a request, block on a flag the reply handler sets.
func pingPong(eng *sim.Engine, u *am.Universe, trips int, serve func(c threads.Ctx, src int, replyH am.HandlerID)) storm {
	var reply *threads.Flag
	replyH := u.Register("reply", func(c threads.Ctx, pkt *cm5.Packet) { reply.Set() })
	reqH := u.Register("req", func(c threads.Ctx, pkt *cm5.Packet) { serve(c, pkt.Src, replyH) })
	return timeRun(eng, func() error {
		_, err := u.SPMD(func(c threads.Ctx, node int) {
			if node == 1 {
				return
			}
			ep := u.Endpoint(0)
			for i := 0; i < trips; i++ {
				reply = new(threads.Flag)
				ep.Send(c, 1, reqH, [4]uint64{}, nil)
				reply.Wait(c)
			}
		})
		return err
	})
}

func amRung(trips int) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	return pingPong(eng, u, trips, func(c threads.Ctx, src int, replyH am.HandlerID) {
		u.Endpoint(1).Send(c, src, replyH, [4]uint64{}, nil)
	})
}

// ---- oam ------------------------------------------------------------

// oamRung serves each request through Dispatcher.Run. With promote set
// the body computes past the handler budget, so every attempt aborts
// too-long and is re-run as a thread — the path a kv CAS takes.
func oamRung(trips int, promote bool) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	var opts oam.Options
	if promote {
		opts.HandlerBudget = sim.Microsecond
	}
	d := oam.NewDispatcher(opts)
	d.SetNodes(2)
	s := pingPong(eng, u, trips, func(c threads.Ctx, src int, replyH am.HandlerID) {
		d.Run(c, u.Endpoint(1), "inc", func(e *oam.Env) {
			if promote {
				e.Compute(2 * sim.Microsecond)
			}
			e.Send(src, replyH, [4]uint64{}, nil)
		})
	})
	if st := d.Stats(); promote && st.Promoted != uint64(trips) || !promote && st.Succeeded != uint64(trips) {
		panic(fmt.Sprintf("bench: oam rung (promote=%v): %v", promote, st))
	}
	return s
}

// ---- rpc, reliable, obs ---------------------------------------------

// rpcRung is the null RPC against an idle server, optionally with the
// reliable transport or an obs metrics collector attached.
func rpcRung(trips int, mode rpc.Mode, withReliable, withObs bool) storm {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	if withReliable {
		reliable.Attach(u, reliable.Options{})
	}
	rt := rpc.New(u, rpc.Options{Mode: mode})
	inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte { return nil })
	if withObs {
		obs.New(obs.Options{Metrics: true}).Attach(u, rt)
	}
	return timeRun(eng, func() error {
		_, err := u.SPMD(func(c threads.Ctx, node int) {
			if node == 0 {
				for i := 0; i < trips; i++ {
					inc.Call(c, 1, nil)
				}
			}
		})
		return err
	})
}

// wireStorm marshals and unmarshals one kilobyte per trip.
func wireStorm(trips int) storm {
	words := make([]uint64, 127) // 8-byte length prefix + 127 words = 1 KiB
	var sink uint64
	s := timeRun(nil, func() error {
		for i := 0; i < trips; i++ {
			e := rpc.NewEnc(1024)
			e.U64s(words)
			sink += rpc.NewDec(e.Bytes()).U64s()[0]
		}
		return nil
	})
	_ = sink
	return s
}
