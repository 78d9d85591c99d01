package sim

import (
	"strings"
	"testing"
	"time"
)

func TestKernelCallbackOrdering(t *testing.T) {
	e := New(1)
	var order []string
	e.At(10, func() { order = append(order, "b") })
	e.At(5, func() { order = append(order, "a") })
	e.At(10, func() { order = append(order, "c") }) // same time: FIFO by seq
	e.At(20, func() { order = append(order, "d") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abcd" {
		t.Fatalf("order = %q, want abcd", got)
	}
	if e.Now() != 20 {
		t.Fatalf("final time = %v, want 20", e.Now())
	}
}

// TestMicrosRounds: a cost written to two decimals is that many tens of
// nanoseconds, whatever its binary fraction; truncation lost one from 590
// of these values (2.01, 8.03, ...).
func TestMicrosRounds(t *testing.T) {
	bad := 0
	for i := 1; i <= 100000; i++ {
		us := float64(i) / 100
		if want := time.Duration(i) * 10; Micros(us) != want || Micros(-us) != -want {
			if bad++; bad <= 5 {
				t.Errorf("Micros(±%v) = %d, %d; want ±%d", us, Micros(us), Micros(-us), want)
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d of 100000 two-decimal values are off", bad)
	}
	if Micros(0) != 0 || Micros(0.0004) != 0 || Micros(0.0005) != 1 || Micros(-0.0005) != -1 {
		t.Errorf("halves do not round away from zero: %d %d %d", Micros(0.0004), Micros(0.0005), Micros(-0.0005))
	}
}

func TestChargeAdvancesTime(t *testing.T) {
	e := New(1)
	var at1, at2 Time
	e.Spawn("worker", func(p *Proc) {
		p.Charge(Micros(10))
		at1 = p.Now()
		p.Charge(Micros(2.5))
		at2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != Time(Micros(10)) {
		t.Errorf("after first charge: %v, want 10us", at1)
	}
	if at2 != Time(Micros(12.5)) {
		t.Errorf("after second charge: %v, want 12.5us", at2)
	}
}

func TestChargeZeroYields(t *testing.T) {
	e := New(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Charge(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
		p.Charge(0)
		order = append(order, "b2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a1 b1 a2 b2"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestParkUnpark(t *testing.T) {
	e := New(1)
	var woke Time
	var waiter *Proc
	waiter = e.Spawn("waiter", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Charge(Micros(42))
		waiter.Unpark()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(Micros(42)) {
		t.Fatalf("woke at %v, want 42us", woke)
	}
	if e.Live() != 0 {
		t.Fatalf("live procs = %d, want 0", e.Live())
	}
}

func TestQuiescenceLeavesParkedProcs(t *testing.T) {
	e := New(1)
	e.Spawn("stuck", func(p *Proc) { p.Park() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 1 {
		t.Fatalf("live = %d, want 1 parked proc", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("live after Shutdown = %d, want 0", e.Live())
	}
}

func TestShutdownReleasesChargeWaiters(t *testing.T) {
	e := New(1)
	e.Spawn("sleeper", func(p *Proc) { p.Charge(Second) })
	if err := e.RunUntil(Time(Micros(1))); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("live after Shutdown = %d, want 0", e.Live())
	}
}

func TestPanicPropagates(t *testing.T) {
	e := New(1)
	e.Spawn("bad", func(p *Proc) {
		p.Charge(Micros(1))
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected error from panicking proc")
	}
	pe, ok := err.(*PanicError)
	if !ok {
		t.Fatalf("error type %T, want *PanicError", err)
	}
	if pe.Proc != "bad" || pe.Value != "boom" {
		t.Fatalf("unexpected panic error: %v / %v", pe.Proc, pe.Value)
	}
	e.Shutdown()
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		e.After(Micros(10), tick)
	}
	e.After(Micros(10), tick)
	if err := e.RunUntil(Time(Micros(55))); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if e.Now() != Time(Micros(55)) {
		t.Fatalf("now = %v, want 55us", e.Now())
	}
	e.Shutdown()
}

func TestStop(t *testing.T) {
	e := New(1)
	n := 0
	var loop func()
	loop = func() {
		n++
		if n == 3 {
			e.Stop()
			return
		}
		e.After(Micros(1), loop)
	}
	e.After(0, loop)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	e.Shutdown()
}

// TestDeterminism runs the same mixed workload twice and demands identical
// schedule hashes and final times.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, Time) {
		e := New(99)
		h := NewHashTracer()
		e.SetTracer(h)
		var procs []*Proc
		for i := 0; i < 8; i++ {
			p := e.Spawn("w", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Charge(Duration(e.Rand().Intn(1000)))
					if e.Rand().Intn(4) == 0 {
						p.Charge(0)
					}
				}
			})
			procs = append(procs, p)
		}
		_ = procs
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return h.Sum(), e.Now()
	}
	h1, t1 := run()
	h2, t2 := run()
	if h1 != h2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%x,%v) vs (%x,%v)", h1, t1, h2, t2)
	}
}

func TestChargeFromWrongContextPanics(t *testing.T) {
	e := New(1)
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) { p.Park() })
	e.Spawn("abuser", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic charging another proc")
			}
		}()
		victim.Charge(Micros(1))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
}

func TestSpawnFromProc(t *testing.T) {
	e := New(1)
	var childTime Time
	e.Spawn("parent", func(p *Proc) {
		p.Charge(Micros(5))
		e.Spawn("child", func(c *Proc) {
			c.Charge(Micros(3))
			childTime = c.Now()
		})
		p.Charge(Micros(100))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != Time(Micros(8)) {
		t.Fatalf("child finished at %v, want 8us", childTime)
	}
}

func TestTimeHelpers(t *testing.T) {
	if Micros(1.5) != 1500*time.Nanosecond {
		t.Errorf("Micros(1.5) = %v", Micros(1.5))
	}
	tm := Time(0).Add(Micros(10))
	if tm.Micros() != 10 {
		t.Errorf("Micros() = %v", tm.Micros())
	}
	if tm.Sub(Time(Micros(4))) != Micros(6) {
		t.Errorf("Sub wrong")
	}
	if Time(1500).String() != "1.500us" {
		t.Errorf("String = %q", Time(1500).String())
	}
	if s := Time(Second).Seconds(); s != 1 {
		t.Errorf("Seconds = %v", s)
	}
}

func TestUnparkNonParkedPanics(t *testing.T) {
	e := New(1)
	runner := e.Spawn("runner", func(p *Proc) { p.Charge(Micros(100)) })
	e.Spawn("abuser", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic unparking non-parked proc")
			}
		}()
		runner.Unpark()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCounters(t *testing.T) {
	e := New(1)
	e.Spawn("w", func(p *Proc) {
		p.Charge(Micros(1))
		p.Charge(Micros(1))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events() == 0 || e.Dispatches() < 3 {
		t.Fatalf("counters not advancing: events=%d dispatches=%d", e.Events(), e.Dispatches())
	}
}
