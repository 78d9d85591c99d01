package sim

import (
	"bytes"
	"math/rand"
	"testing"
)

// goldenWorkload drives every control-transfer path of the kernel —
// charges, zero-charges, park/unpark, interruptible charges cut short by
// Interrupt, spawn-from-proc, cancelled timers, kernel callbacks, and a
// shutdown kill of a still-parked process — under a fixed seed. The
// returned counters and schedule hash pin the kernel's observable
// behavior: any rewrite of the dispatch machinery must reproduce them
// bit-for-bit.
func goldenWorkload() (events, dispatches, hash uint64, final Time) {
	e := New(42)
	rng := rand.New(rand.NewSource(42))
	h := NewHashTracer()
	e.SetTracer(h)

	var parked *Proc
	parked = e.Spawn("parked", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Park()
		}
	})
	e.Spawn("waker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Charge(Duration(rng.Intn(500)))
			parked.Unpark()
		}
	})

	intr := e.Spawn("intr", func(p *Proc) {
		rem := Micros(300)
		for rem > 0 {
			rem = p.ChargeInterruptible(rem)
		}
	})
	for _, at := range []float64{20, 80, 140} {
		e.After(Micros(at), func() { intr.Interrupt() })
	}

	e.Spawn("spawner", func(p *Proc) {
		for i := 0; i < 10; i++ {
			e.Spawn("child", func(q *Proc) {
				q.Charge(Duration(rng.Intn(200)))
				q.Charge(0)
			})
			p.Charge(Duration(rng.Intn(100)))
		}
	})

	tm := e.AfterTimer(Micros(50), func() {})
	e.After(Micros(10), func() { tm.Cancel() })

	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			for j := 0; j < 30; j++ {
				p.Charge(Duration(rng.Intn(1000)))
				if rng.Intn(3) == 0 {
					p.Charge(0)
				}
			}
		})
	}

	// Left parked forever: exercises the Shutdown kill path in the hash.
	e.Spawn("immortal", func(p *Proc) {
		for {
			p.Park()
		}
	})

	if err := e.Run(); err != nil {
		panic(err)
	}
	final = e.Now()
	e.Shutdown()
	return e.Events(), e.Dispatches(), h.Sum(), final
}

// Golden values recorded from the seed (two-hop, dedicated-kernel-
// goroutine) kernel before the direct-handoff rewrite. The migrating
// kernel loop changes which OS goroutine runs the event loop, never the
// loop's logic, so these must stay constant forever.
const (
	goldenEvents     = 227
	goldenDispatches = 224
	goldenHash       = 0x5c9e483f7593abf6
	goldenFinal      = Time(300000)
)

// goldenTrace is the WriterTracer text of a small mixed run (a charger,
// a park/unpark pair, and a shutdown kill), recorded from the seed
// kernel. Trace text pins resume/yield/exit order and virtual timestamps
// byte-for-byte.
const goldenTrace = `0.000us resume a
0.000us yield  a
0.000us resume b
0.000us yield  b
0.000us resume s
0.000us yield  s
1.000us resume a
1.000us yield  a
1.000us resume b
1.000us exit   b
2.000us resume a
2.000us exit   a
2.000us resume s
2.000us exit   s
`

// TestGoldenTraceText compares a full WriterTracer transcript against the
// seed kernel's, so the rewrite provably emits identical tracer output,
// not just an identical hash.
func TestGoldenTraceText(t *testing.T) {
	e := New(1)
	var buf bytes.Buffer
	e.SetTracer(NewWriterTracer(&buf))
	var s *Proc
	e.Spawn("a", func(p *Proc) {
		p.Charge(Micros(1))
		p.Charge(Micros(1))
		s.Unpark()
	})
	e.Spawn("b", func(p *Proc) {
		p.Charge(Micros(1))
	})
	s = e.Spawn("s", func(p *Proc) {
		p.Park()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if got := buf.String(); got != goldenTrace {
		t.Errorf("trace differs from seed kernel:\n--- got ---\n%s--- want ---\n%s", got, goldenTrace)
	}
}

// TestGoldenKernelEquivalence pins the kernel's observable schedule
// against constants recorded from the seed kernel, so a scheduling
// rewrite cannot silently change event order, virtual timestamps, or
// trace output.
func TestGoldenKernelEquivalence(t *testing.T) {
	events, dispatches, hash, final := goldenWorkload()
	t.Logf("events=%d dispatches=%d hash=%#x final=%d", events, dispatches, hash, int64(final))
	if events != goldenEvents {
		t.Errorf("events = %d, want golden %d", events, goldenEvents)
	}
	if dispatches != goldenDispatches {
		t.Errorf("dispatches = %d, want golden %d", dispatches, goldenDispatches)
	}
	if hash != goldenHash {
		t.Errorf("schedule hash = %#x, want golden %#x", hash, goldenHash)
	}
	if final != goldenFinal {
		t.Errorf("final time = %d, want golden %d", int64(final), int64(goldenFinal))
	}
}
