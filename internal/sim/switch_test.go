package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// atProcs runs f at GOMAXPROCS 1, 2 and 4: the coroutine switch must not
// care how many Ps could have run the process goroutines.
func atProcs(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", n), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			f(t)
		})
	}
}

// TestShutdownLeavesNoGoroutines: Shutdown is synchronous. Every process
// coroutine — pooled worker, parked, mid-charge, mid-ChargeSeq, step-waiting,
// never dispatched — is gone when it returns, not whenever the Go scheduler next
// gets to it, so the goroutine count is back where it was before New with
// no settling time.
// A sharded engine's window runners are ordinary goroutines: Shutdown
// waits until each has run its last statement, which is as much as Go lets
// anyone wait for, so up to Shards of them may still be on their way out.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	modes := []ShardConfig{
		{Shards: 1},
		{Shards: 2},
		{Shards: 2, Mode: Optimistic},
	}
	// Plain loops, not subtests, and the sequential engine first: a
	// subtest's own goroutine, like a window runner, may still be exiting
	// when the next baseline is taken.
	for _, cfg := range modes {
		runners := 0
		if cfg.Shards > 1 {
			runners = cfg.Shards
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			before := runtime.NumGoroutine()
			e := NewShardedConfig(5, cfg)
			newToyNet(e, 8, Micros(2), 0) // the window hook; no flights
			for i := 0; i < e.Shards(); i++ {
				sh := e.Shard(i)
				for j := 0; j < 8; j++ {
					sh.Spawn("worker", func(p *Proc) { p.Charge(Micros(3)) })
				}
				sh.Spawn("parked", func(p *Proc) { p.Park() })
				sh.Spawn("charging", func(p *Proc) { p.ChargeInterruptible(Second) })
				sh.Spawn("polling", func(p *Proc) { p.StepWait(Micros(1)) })
				// Mid-chain, in the first charge and in the kernel-armed second.
				sh.Spawn("chaining", func(p *Proc) { p.ChargeSeq(Second, Micros(1)) })
				sh.Spawn("seq", func(p *Proc) { p.ChargeSeq(Micros(1), Second) })
			}
			if err := e.RunUntil(Time(Micros(50))); err != nil {
				t.Fatal(err)
			}
			// One spawn more than the pool holds, so that one coroutine per
			// shard is brand new and Shutdown finds it never started.
			for i := 0; i < e.Shards(); i++ {
				for j := 0; j < 9; j++ {
					e.Shard(i).Spawn("late", func(p *Proc) { t.Error("never-dispatched body ran") })
				}
			}
			if mid := runtime.NumGoroutine(); mid <= before {
				t.Fatalf("GOMAXPROCS=%d %+v: %d goroutines before Shutdown, %d before New: coroutines are not being counted", procs, cfg, mid, before)
			}
			e.Shutdown()
			if after := runtime.NumGoroutine(); after > before+runners {
				t.Errorf("GOMAXPROCS=%d %+v: %d goroutines after Shutdown, %d before New", procs, cfg, after, before)
			}
			if e.Live() != 0 {
				t.Errorf("GOMAXPROCS=%d %+v: live after Shutdown = %d", procs, cfg, e.Live())
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestRespawnWithinPostExitTenure: a finished process's coroutine keeps
// the kernel role; a callback it fires respawns onto its own pooled Proc,
// and the loop it is running dispatches that Proc. The coroutine must find
// itself in sh.pending and run the new body: a handoff, but no switch.
func TestRespawnWithinPostExitTenure(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		e := New(1)
		defer e.Shutdown()
		var second *Proc
		ran := false
		first := e.Spawn("first", func(p *Proc) {
			p.Shard().After(0, func() {
				second = e.Spawn("second", func(p *Proc) {
					p.Charge(Micros(1))
					ran = true
				})
			})
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if second != first {
			t.Fatal("respawn did not recycle the pooled Proc")
		}
		if !ran {
			t.Fatal("respawned body did not run")
		}
		// first, second, and second's charge resume (inline); the only
		// switches are the trampoline's next and the yield that ends the run.
		if d, h, s := e.Dispatches(), e.Handoffs(), e.Switches(); d != 3 || h != 2 || s != 2 {
			t.Fatalf("dispatches/handoffs/switches = %d/%d/%d, want 3/2/2", d, h, s)
		}
	})
}

// TestShutdownFromCallbackPanics: Shutdown from inside Run is refused before
// anything is killed, from a kernel callback as from a process — the
// coroutine holding the kernel, and every one below it in the chain, cannot
// be resumed to unwind. Run re-raises the callback's panic; the engine is
// intact, and a Shutdown from outside then reaps it.
func TestShutdownFromCallbackPanics(t *testing.T) {
	for _, cfg := range []ShardConfig{{Shards: 1}, {Shards: 2}} {
		runners := 0
		if cfg.Shards > 1 {
			runners = cfg.Shards // may still be on their way out, as above
		}
		before := runtime.NumGoroutine()
		e := NewShardedConfig(1, cfg)
		newToyNet(e, e.Shards(), Micros(2), 0)
		for i := 0; i < 2; i++ {
			e.Spawn("ticker", func(p *Proc) {
				for {
					p.Charge(Micros(1))
				}
			})
		}
		e.After(Micros(2.5), e.Shutdown)
		func() {
			defer func() {
				if r := recover(); r != "sim: Shutdown from inside the simulation" {
					t.Fatalf("%+v: recovered %v, want the sim's refusal", cfg, r)
				}
			}()
			e.Run()
			t.Fatalf("%+v: Run returned instead of re-raising the refusal", cfg)
		}()
		if e.Live() != 2 {
			t.Fatalf("%+v: live = %d after the refused Shutdown, want 2", cfg, e.Live())
		}
		e.Shutdown()
		if after := runtime.NumGoroutine(); after > before+runners || e.Live() != 0 {
			t.Fatalf("%+v: %d goroutines after Shutdown, %d before New; live = %d", cfg, after, before, e.Live())
		}
	}
}

// TestShutdownUnwindsEveryState: Shutdown unwinds a process suspended in
// an interruptible charge through its deferred calls, one parked with a
// continuation and one mid kernel-armed charge without asking either
// continuation again, and retires a process that was spawned but never
// dispatched without running its body.
func TestShutdownUnwindsEveryState(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		e := New(1)
		unwound := false
		charging := e.Spawn("charging", func(p *Proc) {
			defer func() { unwound = true }()
			p.ChargeInterruptible(Second)
			t.Error("interruptible charge returned during Shutdown")
		})
		asked, unwoundK := 0, 0
		for _, steps := range [][]contStep{{{'a', 0}, {'p', 0}}, {{'a', 0}, {'c', Second}}} {
			e.Spawn("continued", func(p *Proc) {
				defer func() { unwoundK++ }()
				p.ChargeThen(Micros(1), &contScript{steps, func(contStep) { asked++ }})
				t.Error("a continuation said Run during Shutdown")
			})
		}
		if err := e.RunUntil(Time(Micros(5))); err != nil {
			t.Fatal(err)
		}
		late := e.Spawn("late", func(p *Proc) { t.Error("never-dispatched body ran") })
		e.Shutdown()
		if !unwound {
			t.Fatal("deferred call of the charging process did not run")
		}
		if asked != 2 || unwoundK != 2 {
			t.Fatalf("continuations asked %d times, %d of their processes unwound; want 2 and 2", asked, unwoundK)
		}
		if !charging.Dead() || !late.Dead() || e.Live() != 0 {
			t.Fatalf("dead = %v/%v, live = %d after Shutdown", charging.Dead(), late.Dead(), e.Live())
		}
	})
}

// TestPanicsStayOffTheSwitch: a body panic is reported by Run as a
// *PanicError and a kernel-callback panic is re-raised by Run on its
// caller's goroutine, also when they happen on a process coroutine several
// switches deep. Neither may travel through next().
func TestPanicsStayOffTheSwitch(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		// Body panic, after the process has been switched out and back.
		e := New(1)
		e.Spawn("other", func(p *Proc) { p.Charge(Micros(2)) })
		e.Spawn("bad", func(p *Proc) {
			p.Charge(Micros(1))
			panic("boom")
		})
		var pe *PanicError
		if err := e.Run(); !errors.As(err, &pe) || pe.Proc != "bad" || pe.Value != "boom" {
			t.Fatalf("Run = %v, want *PanicError from bad", err)
		}
		e.Shutdown()

		// Kernel-callback panic fired during a process's tenure as kernel.
		e = New(1)
		e.Spawn("host", func(p *Proc) {
			p.Shard().After(Micros(1), func() { panic("kboom") })
			p.Charge(Micros(5))
			t.Error("process resumed after the kernel panic ended the run")
		})
		func() {
			defer func() {
				if r := recover(); r != "kboom" {
					t.Fatalf("recovered %v, want the kernel callback's panic", r)
				}
			}()
			e.Run()
			t.Fatal("Run returned instead of re-raising the kernel panic")
		}()
		e.Shutdown()
		if e.Live() != 0 {
			t.Fatalf("live after Shutdown = %d", e.Live())
		}
	})
}

// TestStopFromProcess: Stop called by the running process ends the run at
// its next yield, leaving it and its peers suspended for Shutdown.
func TestStopFromProcess(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		e := New(1)
		rounds := 0
		e.Spawn("peer", func(p *Proc) {
			for {
				p.Charge(Micros(1))
			}
		})
		e.Spawn("stopper", func(p *Proc) {
			for {
				p.Charge(Micros(1))
				if rounds++; rounds == 3 {
					p.Engine().Stop()
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if rounds != 3 || e.Now() != Time(Micros(3)) || e.Live() != 2 {
			t.Fatalf("rounds = %d, now = %v, live = %d; want 3, 3us, 2", rounds, e.Now(), e.Live())
		}
		e.Shutdown()
		if e.Live() != 0 {
			t.Fatalf("live after Shutdown = %d", e.Live())
		}
	})
}

// TestRunUntilResumesSameCoroutines: every RunUntil starts a fresh
// trampoline over the same suspended coroutines — processes carry on where
// they stopped and no goroutine is created or lost between calls.
func TestRunUntilResumesSameCoroutines(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		e := New(1)
		defer e.Shutdown()
		var ticks [2]int
		for i := range ticks {
			e.Spawn("ticker", func(p *Proc) {
				for {
					p.Charge(Micros(1))
					ticks[i]++
				}
			})
		}
		goroutines := 0
		for call := 1; call <= 5; call++ {
			if err := e.RunUntil(Time(Micros(float64(10 * call)))); err != nil {
				t.Fatal(err)
			}
			if ticks[0] != 10*call || ticks[1] != 10*call {
				t.Fatalf("after call %d: ticks = %v, want %d each", call, ticks, 10*call)
			}
			if n := runtime.NumGoroutine(); call == 1 {
				goroutines = n
			} else if n != goroutines {
				t.Fatalf("after call %d: %d goroutines, %d after the first", call, n, goroutines)
			}
		}
		// The two tickers alternate, so every dispatch is a handoff, and one
		// switch: the second ticker's next or its yield back to the first.
		// Each deadline unwinds both.
		if d, h, s := e.Dispatches(), e.Handoffs(), e.Switches(); d != 102 || h != d || s != h+5*2 {
			t.Fatalf("dispatches/handoffs/switches = %d/%d/%d, want 102/102/112", d, h, s)
		}
	})
}
