package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// chargeZero is a static body so spawning it allocates no closure.
func chargeZero(p *Proc) { p.Charge(0) }

// TestSpawnExitZeroAllocs is the allocation budget of the process
// lifecycle: once the worker pool is warm, a Spawn -> run -> exit cycle
// must reuse a pooled coroutine and Proc struct rather than allocate. The budget tolerates stray runtime allocations amortized
// over the window; a per-spawn allocation anywhere would read as >= 1.
func TestSpawnExitZeroAllocs(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	const warmup, measured = 200, 5_000
	var m0, m1 runtime.MemStats
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < warmup; i++ {
			e.Spawn("w", chargeZero)
			p.Charge(Micros(1))
		}
		runtime.ReadMemStats(&m0)
		for i := 0; i < measured; i++ {
			e.Spawn("w", chargeZero)
			p.Charge(Micros(1))
		}
		runtime.ReadMemStats(&m1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	perSpawn := float64(m1.Mallocs-m0.Mallocs) / measured
	if perSpawn >= 0.01 {
		t.Fatalf("pooled spawn/exit cycle allocates %.4f objects/op, want 0", perSpawn)
	}
}

// TestDispatchCounters pins the split between handoffs and zero-switch
// self-resumes: a lone process that only charges must be resumed inline
// on its own stack every time after the first dispatch.
func TestDispatchCounters(t *testing.T) {
	e := New(1)
	const rounds = 50
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Charge(Micros(1))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// rounds+1 dispatches: the initial spawn handoff plus one per charge.
	if got := e.Dispatches(); got != rounds+1 {
		t.Fatalf("dispatches = %d, want %d", got, rounds+1)
	}
	// Only the spawn dispatch is a switch (Run's trampoline switches onto
	// the proc); every charge resume is served in place. The second switch
	// is the yield that ends the run.
	if h, s := e.Handoffs(), e.Switches(); h != 1 || s != 2 {
		t.Fatalf("handoffs/switches = %d/%d, want 1/2 (self-resumes must be inline)", h, s)
	}
}

// BenchmarkDispatchPingPong measures the cost of a process switch: two
// processes charge in lockstep, so every dispatch hands the kernel role
// to the other process's coroutine — the first calls the second's next, the
// second yields back: one switch a dispatch.
func BenchmarkDispatchPingPong(b *testing.B) {
	e := New(1)
	defer e.Shutdown()
	body := func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Charge(Microsecond)
		}
	}
	e.Spawn("ping", body)
	e.Spawn("pong", body)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if d := e.Dispatches(); d > 0 {
		b.ReportMetric(float64(e.Handoffs())/float64(d), "handoffs/dispatch")
		b.ReportMetric(float64(e.Switches())/float64(d), "switches/dispatch")
	}
}

// BenchmarkDispatchRing is the resume chain's worst case: n tickers in
// strict rotation, so control never returns the way it went. The first
// ticker of a round is reached by unwinding the whole chain and every other
// by a call: 2 - 2/n switches a handoff, against the two a trampoline makes
// of every handoff, and a chain n deep.
func BenchmarkDispatchRing(b *testing.B) {
	for _, n := range []int{2, 8, 64, 1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := New(1)
			defer e.Shutdown()
			rounds := b.N/n + 1
			for i := 0; i < n; i++ {
				e.Spawn("ticker", func(p *Proc) {
					for r := 0; r < rounds; r++ {
						p.Charge(Microsecond)
					}
				})
			}
			// Start the coroutines and fill the queue outside the timer.
			if err := e.RunUntil(0); err != nil {
				b.Fatal(err)
			}
			h0, s0 := e.Handoffs(), e.Switches()
			runAllocFree(b, e)
			h := float64(e.Handoffs() - h0)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/h, "ns/handoff")
			b.ReportMetric(float64(e.Switches()-s0)/h, "switches/handoff")
		})
	}
}

// runAllocFree times e.Run and fails the benchmark if the run allocated:
// no charge grade makes garbage. The slack is for the runtime's own strays.
func runAllocFree(b *testing.B, e *Engine) {
	b.Helper()
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n > 16+uint64(b.N)/100 {
		b.Fatalf("%d allocations over %d charges, want none", n, b.N)
	}
}

// benchLoneCharger is a lone process that only charges: nothing is ever
// due before its resume.
func benchLoneCharger(b *testing.B, queueOnly bool) {
	e := New(1)
	defer e.Shutdown()
	e.Shard(0).queueOnly = queueOnly
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Charge(Microsecond)
		}
	})
	runAllocFree(b, e)
	if h := e.Handoffs(); h != 1 {
		b.Fatalf("%d handoffs, want the spawn's alone", h)
	}
}

// BenchmarkChargeInPlace measures the cheapest charge: the clock advances
// on the live stack, no event, no loop.
func BenchmarkChargeInPlace(b *testing.B) { benchLoneCharger(b, false) }

// BenchmarkChargeQueued measures the same charge taking the queue — a
// pooled event pushed, popped and found to be the caller's own — which is
// what it costs whenever anything is due at or before the resume.
func BenchmarkChargeQueued(b *testing.B) { benchLoneCharger(b, true) }

// BenchmarkChargeSeq measures a pair of charges against a second process
// charging out of phase, as ChargeSeq (the kernel arms the second charge
// and a handoff becomes an inline event) and as two Charges.
func BenchmarkChargeSeq(b *testing.B) {
	for _, chain := range []bool{true, false} {
		name := "two-charges"
		if chain {
			name = "chain"
		}
		b.Run(name, func(b *testing.B) {
			e := New(1)
			defer e.Shutdown()
			done := false
			e.Spawn("p", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					if chain {
						p.ChargeSeq(10, 10)
					} else {
						p.Charge(10)
						p.Charge(10)
					}
				}
				done = true
			})
			e.Spawn("q", func(q *Proc) {
				for q.Charge(5); !done; {
					q.Charge(10)
				}
			})
			runAllocFree(b, e)
			b.ReportMetric(float64(e.Handoffs())/float64(b.N), "handoffs/op")
		})
	}
}

// BenchmarkSpawnExit measures a full pooled process lifecycle, spawn
// through exit.
func BenchmarkSpawnExit(b *testing.B) {
	e := New(1)
	defer e.Shutdown()
	e.Spawn("driver", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Spawn("w", chargeZero)
			p.Charge(Micros(1))
		}
		b.StopTimer()
	})
	b.ReportAllocs()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
