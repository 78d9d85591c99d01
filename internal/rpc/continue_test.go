package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/threads"
)

// callCont asks CallThen for one call of p and, asked again with the
// outcome in out, runs: the kernel spelling of a blocking call, driven
// from the caller's stack.
type callCont struct {
	p        *Proc
	s        *threads.Scheduler
	arg      *Enc
	per      sim.Duration
	attempts int
	asked    bool
	out      Call
}

func (k *callCont) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	if k.asked {
		return sim.NextRun, 0
	}
	k.asked = true
	return k.p.CallThen(threads.Ctx{P: p, S: k.s}, &k.out, 1, k.arg, k.per, k.attempts, k)
}

// TestCallThenMatchesBlockingCall holds CallThen, asked in kernel context
// with its outcome left in the caller's record, to the blocking
// CallIdempotent on every branch of the call: a reply; nacks, backed off 10
// then 20 us, then a reply; a deadline timeout, and attempts run out, after
// nacks (a procedure that would block is refused under Nack, backing off 10,
// 20, 40, 80 us); and replies that arrive after their attempts timed out,
// counted stale while the next call waits. Trace bytes, Events, Charged, the procedures'
// counters, the stale count and every outcome are equal.
func TestCallThenMatchesBlockingCall(t *testing.T) {
	type call struct {
		proc          string
		per           sim.Duration
		attempts      int
		retries, errs int
	}
	for _, tc := range []struct {
		name  string
		hold  sim.Duration // the server holds the object lock this long
		calls []call
	}{
		{"reply", 0, []call{{proc: "echo", per: sim.Micros(5000), attempts: 1}}},
		{"nack, nack, reply", sim.Micros(40), []call{{proc: "poke", per: sim.Micros(5000), attempts: 1, retries: 2}}},
		{"deadline timeout", 0, []call{{proc: "hang", per: sim.Micros(200), attempts: 1, retries: 4, errs: 1}}},
		{"idempotent out of attempts", 0, []call{{proc: "hang", per: sim.Micros(100), attempts: 3, retries: 9, errs: 1}}},
		{"stale replies after timeouts", 0, []call{{proc: "slow", per: sim.Micros(100), attempts: 2, errs: 1}, {proc: "echo", per: sim.Micros(5000), attempts: 1}}},
	} {
		program := func(kernel bool) string {
			var buf bytes.Buffer
			rt := newRT(t, 2, Options{Mode: ORPC, OAM: oam.Options{Strategy: oam.Nack}})
			u := rt.Universe()
			eng := u.Machine().Engine()
			eng.SetSink(sim.NewWriterTracer(&buf))
			s1 := u.Scheduler(1)
			mu := threads.NewMutex(s1)
			cv := threads.NewCond(mu)
			procs := map[string]*Proc{
				"echo": rt.Define("echo", func(e *oam.Env, caller int, arg []byte) []byte { return arg }),
				"poke": rt.Define("poke", func(e *oam.Env, caller int, arg []byte) []byte {
					e.Lock(mu)
					e.Unlock(mu)
					return arg
				}),
				"hang": rt.Define("hang", func(e *oam.Env, caller int, arg []byte) []byte {
					e.Lock(mu)
					e.Await(cv, func() bool { return false }) // never
					e.Unlock(mu)
					return nil
				}),
				"slow": rt.Define("slow", func(e *oam.Env, caller int, arg []byte) []byte {
					e.Compute(sim.Micros(300))
					return arg
				}),
			}
			stopped := false
			stop := rt.DefineAsync("stop", func(e *oam.Env, caller int, arg []byte) []byte {
				stopped = true
				return nil
			})
			var got []string
			_, err := u.SPMD(func(c threads.Ctx, node int) {
				ep := u.Endpoint(node)
				if node == 1 {
					if tc.hold > 0 {
						mu.Lock(c)
						for c.P.Now() < sim.Time(tc.hold) {
							ep.Poll(c)
						}
						mu.Unlock(c)
					}
					for !stopped {
						ep.Poll(c)
						c.P.Charge(sim.Micros(2))
						c.S.Yield(c)
					}
					return
				}
				for i, cl := range tc.calls {
					p := procs[cl.proc]
					arg := NewEnc(8)
					arg.U64(uint64(100 + i))
					var res Enc
					var err error
					if kernel {
						k := &callCont{p: p, s: c.S, arg: arg, per: cl.per, attempts: cl.attempts}
						ep.Drive(c, -1, k)
						res, err = k.out.Rep, k.out.Err
					} else {
						res, err = p.CallIdempotent(c, 1, arg, cl.per, cl.attempts)
					}
					if errors.Is(err, ErrDeadline) != (cl.errs > 0) {
						t.Errorf("%s: call %d: err %v", tc.name, i, err)
					}
					got = append(got, fmt.Sprintf("%v %v", res.Bytes(), err))
				}
				stop.CallAsync(c, 1, nil)
			})
			if err != nil {
				t.Fatal(err)
			}
			var st []ProcStats
			for _, name := range []string{"echo", "poke", "hang", "slow"} {
				st = append(st, procs[name].Stats())
			}
			for _, cl := range tc.calls {
				if ps := procs[cl.proc].Stats(); int(ps.Retries) != cl.retries {
					t.Errorf("%s: %s retried %d times, want %d", tc.name, cl.proc, ps.Retries, cl.retries)
				}
			}
			return fmt.Sprintf("%s events %d charged %v stats %+v stale %d outcomes %v",
				buf.String(), eng.Events(), eng.Charged(), st, rt.StaleReplies(), got)
		}
		if k, s := program(true), program(false); k != s {
			t.Errorf("%s: CallThen and the blocking call differ:\n%s\n---\n%s", tc.name, k, s)
		}
	}
}

// caller is a thread's code as its head: one CallThen of p, then the exit.
type caller struct {
	p     *Proc
	s     *threads.Scheduler
	arg   *Enc
	asked bool
	out   Call
	got   *[]string
}

func (k *caller) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	if !k.asked {
		k.asked = true
		return k.p.CallThen(threads.Ctx{P: p, S: k.s}, &k.out, 1, k.arg, sim.Micros(5000), 2, k)
	}
	*k.got = append(*k.got, fmt.Sprintf("%v %v", k.out.Rep.Bytes(), k.out.Err))
	return k.s.Exit(p)
}

// spawner creates the threads of its creations in kernel context, then runs.
type spawner struct {
	s  *threads.Scheduler
	cs []threads.Creation
}

func (k *spawner) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	if len(k.cs) == 0 {
		return sim.NextRun, 0
	}
	cr := &k.cs[0]
	k.cs = k.cs[1:]
	cr.Then = k
	return k.s.CreateThen(p, cr)
}

// TestHeadOnItsStack: threads whose code is a head of CallThen leave the
// trace, Events, Charged and counters of the same calls made from bodies,
// also when a head needs its stack and then ends from it: its request
// refused by the server's full NIC, which the stack drains and retries; or,
// a lone caller waiting, handlers that need a stack arriving at its node.
func TestHeadOnItsStack(t *testing.T) {
	program := func(kernel bool, callers, noiseTo int) string {
		var buf bytes.Buffer
		eng := sim.New(17)
		t.Cleanup(eng.Shutdown)
		eng.SetSink(sim.NewWriterTracer(&buf))
		cost := cm5.DefaultCostModel()
		cost.NICQueueCap = 1
		u := am.NewUniverse(eng, 3, cost)
		rt := New(u, Options{Mode: ORPC})
		echo := rt.Define("echo", func(e *oam.Env, caller int, arg []byte) []byte {
			e.Compute(sim.Micros(30))
			return arg
		})
		noise := u.Register("noise", func(c threads.Ctx, pkt *cm5.Packet) { c.P.Charge(sim.Micros(2)) })
		var got []string
		_, err := u.SPMD(func(c threads.Ctx, node int) {
			switch node {
			case 1:
				return
			case 2:
				c.P.Charge(sim.Micros(20)) // the callers are waiting by now
				for i := 0; i < 6; i++ {
					u.Endpoint(2).Send(c, noiseTo, noise, [4]uint64{}, nil)
				}
				return
			}
			var cs []threads.Creation
			for i := 0; i < callers; i++ {
				arg := NewEnc(8)
				arg.U64(uint64(i))
				if kernel {
					cs = append(cs, threads.Creation{Name: threads.Name{Base: "req"}, Head: &caller{p: echo, s: c.S, arg: arg, got: &got}})
					continue
				}
				c.S.Create(c, "req", false, func(c threads.Ctx) {
					res, err := echo.CallIdempotent(c, 1, arg, sim.Micros(5000), 2)
					got = append(got, fmt.Sprintf("%v %v", res.Bytes(), err))
				})
			}
			if kernel {
				c.S.Then(c, &spawner{s: c.S, cs: cs})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if noiseTo == 1 && u.Stats().DrainSpins == 0 {
			t.Fatal("no request was refused: the test lost its subject")
		}
		return fmt.Sprintf("%s events %d charged %v %+v %+v %+v %v", buf.String(), eng.Events(), eng.Charged(),
			echo.Stats(), u.Stats(), u.Scheduler(0).Stats(), got)
	}
	for _, tc := range []struct{ callers, noiseTo int }{{4, 1}, {1, 0}} {
		if k, s := program(true, tc.callers, tc.noiseTo), program(false, tc.callers, tc.noiseTo); k != s {
			t.Errorf("%d callers, noise to node %d: heads and bodies differ:\n%s\n---\n%s", tc.callers, tc.noiseTo, k, s)
		}
	}
}
