package sim

import (
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
		for _, next := range []Next{NextPark, NextCharge} {
			e.Spawn("continued", func(p *Proc) {
				defer func() { unwoundK++ }()
				p.ChargeThen(Micros(1), kFunc(func(*Proc) (Next, Duration) { asked++; return next, Second }))
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
