package threads

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cm5"
	"repro/internal/sim"
)

// TestIdleWokenToNothingStaysParked: the last thread's exit unparks the idle
// process, which has nothing to run and nothing to poll. The kernel loop
// makes that decision in its place: the idle process is the actor again,
// parked, and was not switched to.
func TestIdleWokenToNothingStaysParked(t *testing.T) {
	eng, s := rig(t)
	var atExit uint64
	s.Bootstrap("main", func(c Ctx) {
		c.P.Charge(sim.Micros(5))
		atExit = eng.Handoffs()
	})
	run(t, eng)
	if got := eng.Handoffs() - atExit; got != 0 {
		t.Errorf("%d handoffs after the thread's last line, want 0: the idle process was switched to", got)
	}
	if s.actor != s.idle || !s.idle.Parked() {
		t.Errorf("actor is the idle process: %v, parked: %v; want both", s.actor == s.idle, s.idle.Parked())
	}
}

// TestPollOnceOnlyPoller: a Poller that is nothing more — a func type, as the
// benchmark's ladder has — cannot be stepped, so a delivery switches to the
// sleeping scheduler and the whole poll runs there, in process context.
func TestPollOnceOnlyPoller(t *testing.T) {
	eng, ss := multiRig(t, 2)
	n0, n1 := ss[0].Node(), ss[1].Node()
	var polledBy *sim.Proc
	var polledAt, handledAt sim.Time
	ss[0].SetPoller(pollerFunc(func(c Ctx) bool {
		polledBy, polledAt = c.P, c.P.Now()
		n0.ReleasePacket(n0.PollPacket(c.P)) // charges: only the running process may
		handledAt = c.P.Now()
		return true
	}))
	if ss[0].stepper != nil {
		t.Fatal("a func poller was taken for a stepPoller")
	}
	ss[1].Bootstrap("sender", func(c Ctx) {
		n1.TryInject(c.P, &cm5.Packet{Src: 1, Dst: 0, Kind: cm5.Small})
	})
	run(t, eng)
	cost := n0.Machine().Cost()
	if arrival := sim.Time(cost.PacketSendOverhead + cost.WireLatency); polledBy != ss[0].idle || polledAt != arrival || handledAt != arrival.Add(cost.PacketRecvOverhead) {
		t.Errorf("polled by the idle process: %v, at %v, handled at %v; want true, %v, %v",
			polledBy == ss[0].idle, polledAt, handledAt, arrival, arrival.Add(cost.PacketRecvOverhead))
	}
	if ss[0].ejected != nil || !ss[0].idle.Parked() {
		t.Error("the scheduler did not go back to sleep clean")
	}
}

// TestKernelGivesAwayABlockedThreadsCPU: a blocked thread sleeps as the
// acting scheduler; a wakeup that brings another thread has the kernel loop
// start that thread in its place — one handoff, to the new thread — and when
// the CPU comes back the blocked thread resumes as the current thread.
func TestKernelGivesAwayABlockedThreadsCPU(t *testing.T) {
	eng, s := rig(t)
	var a Handle
	var atWake, atStart uint64
	resumed := false
	a = s.Bootstrap("a", func(c Ctx) {
		s.sh.After(sim.Micros(10), func() {
			atWake = eng.Handoffs()
			s.Bootstrap("b", func(c Ctx) {
				atStart = eng.Handoffs()
				if s.actor != nil || !a.t.proc.Parked() {
					t.Error("a still acts, or is not parked, while b has the CPU")
				}
				a.Resume(true)
			})
		})
		s.Block(c)
		resumed = s.cur == a.t && c.P.Now() == sim.Time(sim.Micros(10)+s.cost.ContextSwitch/2)
	})
	run(t, eng)
	if atStart-atWake != 1 {
		t.Errorf("%d handoffs from the wakeup to b's first line, want 1", atStart-atWake)
	}
	if !resumed {
		t.Error("a did not resume as the current thread one restore half after b's exit")
	}
}

// sleeper is a thread's code as the continuation Scheduler.Then runs:
// rounds times, sleep 10 us, then create a worker that computes 30 us.
type sleeper struct {
	s      *Scheduler
	rounds int
	slept  bool
	create Creation
}

func (k *sleeper) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	switch {
	case k.rounds == 0:
		return sim.NextRun, 0
	case !k.slept:
		k.slept = true
		return k.s.SleepThen(p, sim.Micros(10), k)
	}
	k.slept = false
	k.rounds--
	return k.s.CreateThen(p, &k.create)
}

// TestSleepThenMatchesSleep: a thread that sleeps and creates threads from
// kernel context leaves the trace, Events, Charged and scheduler Stats of
// the same code on its stack, with fewer handoffs. A worker outlives each
// sleep, so the sleeper gets the CPU back both by a free resume (the
// first round) and by a restore (every later one), and each time goes on
// with its continuation.
func TestSleepThenMatchesSleep(t *testing.T) {
	const rounds = 3
	program := func(kernel bool) (trace string, handoffs uint64, st Stats) {
		var buf bytes.Buffer
		eng, s := rig(t)
		eng.SetSink(sim.NewWriterTracer(&buf))
		work := func(c Ctx) { c.P.Charge(sim.Micros(30)) }
		s.Bootstrap("sleeper", func(c Ctx) {
			if kernel {
				k := &sleeper{s: s, rounds: rounds, create: Creation{Name: Name{Base: "worker"}, Body: work}}
				k.create.Then = k
				s.Then(c, k)
			} else {
				for i := 0; i < rounds; i++ {
					s.Sleep(c, sim.Micros(10))
					s.Create(c, "worker", false, work)
				}
			}
			c.P.Charge(sim.Micros(1)) // back on its stack
		})
		run(t, eng)
		return fmt.Sprintf("%s events %d charged %v", buf.String(), eng.Events(), eng.Charged()), eng.Handoffs(), s.Stats()
	}
	kTrace, kHandoffs, kStats := program(true)
	sTrace, sHandoffs, sStats := program(false)
	if kTrace != sTrace || kStats != sStats {
		t.Errorf("the kernel's and the stack's runs differ:\n%s\n%+v\n---\n%s\n%+v", kTrace, kStats, sTrace, sStats)
	}
	if kStats.FreeResumes == 0 || kStats.SwitchHalves == 0 {
		t.Errorf("stats %+v: the sleeper was not resumed both for free and by a restore", kStats)
	}
	if kHandoffs >= sHandoffs {
		t.Errorf("%d handoffs from kernel context, %d from the stack: want fewer", kHandoffs, sHandoffs)
	}
}

// worker is a thread's code as its head: charges (positive steps) and
// sleeps (negative ones) in turn, then the exit.
type worker struct {
	s     *Scheduler
	steps []sim.Duration
	i     int
}

func (w *worker) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	if w.i == len(w.steps) {
		return w.s.Exit(p)
	}
	d := w.steps[w.i]
	w.i++
	if d < 0 {
		return w.s.SleepThen(p, -d, w)
	}
	return sim.NextCharge, d
}

// creator is a thread's code that creates the threads of its creations in
// kernel context, then runs.
type creator struct {
	s  *Scheduler
	cs []Creation
}

func (k *creator) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	if len(k.cs) == 0 {
		return sim.NextRun, 0
	}
	cr := &k.cs[0]
	k.cs = k.cs[1:]
	cr.Then = k
	return k.s.CreateThen(p, cr)
}

// TestHeadMatchesBody: threads whose whole code is a head — charge, sleep,
// exit in kernel context — leave the trace, Events, Charged and scheduler
// Stats of the same steps in bodies on their stacks, and their processes
// are never switched to. w1 exits while main, woken from its sleep
// meanwhile, is ready: the exit pays main's restore half in kernel context
// and hands it the CPU; w2 sleeps twice, resumes for free, and exits with
// nothing to run.
func TestHeadMatchesBody(t *testing.T) {
	w1 := []sim.Duration{sim.Micros(20)}
	w2 := []sim.Duration{-sim.Micros(3), sim.Micros(4), -sim.Micros(40), sim.Micros(1)}
	program := func(kernel bool) (trace string, handoffs uint64, st Stats) {
		var buf bytes.Buffer
		eng, s := rig(t)
		eng.SetSink(sim.NewWriterTracer(&buf))
		body := func(steps []sim.Duration) func(Ctx) {
			return func(c Ctx) {
				for _, d := range steps {
					if d < 0 {
						s.Sleep(c, -d)
					} else {
						c.P.Charge(d)
					}
				}
			}
		}
		create := func(c Ctx, name string, steps []sim.Duration) {
			if kernel {
				s.Then(c, &creator{s: s, cs: []Creation{{Name: Name{Base: name}, Head: &worker{s: s, steps: steps}}}})
			} else {
				s.Create(c, name, false, body(steps))
			}
		}
		s.Bootstrap("main", func(c Ctx) {
			create(c, "w1", w1)
			s.Sleep(c, sim.Micros(5))
			create(c, "w2", w2)
			s.Sleep(c, sim.Micros(100))
			c.P.Charge(sim.Micros(1))
		})
		run(t, eng)
		return fmt.Sprintf("%s events %d charged %v", buf.String(), eng.Events(), eng.Charged()), eng.Handoffs(), s.Stats()
	}
	kTrace, kHandoffs, kStats := program(true)
	sTrace, sHandoffs, sStats := program(false)
	if kTrace != sTrace || kStats != sStats {
		t.Errorf("the kernel's and the stack's runs differ:\n%s\n%+v\n---\n%s\n%+v", kTrace, kStats, sTrace, sStats)
	}
	if kStats.SwitchHalves != 2 || kStats.FreeResumes != 2 {
		t.Errorf("stats %+v: want two restore halves (w1's exit, the idle process's) and w2's two free resumes", kStats)
	}
	if kHandoffs+2 > sHandoffs {
		t.Errorf("%d handoffs from kernel context, %d from the stack: want at least the two starts fewer", kHandoffs, sHandoffs)
	}
}
