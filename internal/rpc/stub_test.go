package rpc

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/threads"
)

// stubRun is what a client-stub test compares: every call's latency, the
// drain and refusal counters, and the engine's own counts.
type stubRun struct {
	lat                 []sim.Duration
	drainSpins, rejects uint64
	events              uint64
	charged             sim.Duration
}

func (r stubRun) String() string {
	return fmt.Sprintf("lat %v drain %d rejects %d events %d charged %v", r.lat, r.drainSpins, r.rejects, r.events, r.charged)
}

// stubUniverse runs body on every node of an n-node universe whose input
// queues hold cap packets, reliable or not, with one null procedure.
func stubUniverse(t *testing.T, n, cap int, mode Mode, rel bool, body func(c threads.Ctx, node int, null *Proc, r *stubRun)) stubRun {
	t.Helper()
	eng := sim.New(17)
	t.Cleanup(eng.Shutdown)
	cost := cm5.DefaultCostModel()
	cost.NICQueueCap = cap
	u := am.NewUniverse(eng, n, cost)
	if rel {
		reliable.Attach(u, reliable.Options{})
	}
	rt := New(u, Options{Mode: mode})
	null := rt.Define("null", func(*oam.Env, int, []byte) []byte { return nil })
	var r stubRun
	if _, err := u.SPMD(func(c threads.Ctx, node int) { body(c, node, null, &r) }); err != nil {
		t.Fatal(err)
	}
	r.drainSpins, r.rejects = u.Stats().DrainSpins, u.Machine().Stats().FullRejects
	r.events, r.charged = eng.Events(), eng.Charged()
	return r
}

// TestStubMeetsFullNIC: two clients call a server that computes before it
// polls, behind a one-packet input queue, so one request finds the queue
// full. The client stub's kernel chain then hands the refused request to
// the caller's am.Endpoint.Drive, which drains and retries it and goes on
// with the chain: the latencies, DrainSpins, refusals, Events and Charged
// are the ones the stack-only stub gave.
func TestStubMeetsFullNIC(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		rel  bool
		want string
	}{
		{ORPC, false, "lat [69.2µs 71.7µs 13.6µs 13.6µs 13.6µs 13.6µs] drain 144 rejects 144 events 224 charged 173.6µs"},
		{TRPC, false, "lat [76.2µs 85.7µs 23µs 23µs 23µs 23µs] drain 144 rejects 144 events 240 charged 215.6µs"},
		{ORPC, true, "lat [79.1µs 85.1µs 30.7µs 30.7µs 30.7µs 30.7µs] drain 226 rejects 226 events 378 charged 265.2µs"},
	} {
		got := stubUniverse(t, 3, 1, tc.mode, tc.rel, func(c threads.Ctx, node int, null *Proc, r *stubRun) {
			if node == 1 {
				c.P.Charge(sim.Micros(60)) // computing, not polling
				return
			}
			c.P.Charge(sim.Micros(float64(node)))
			for i := 0; i < 3; i++ {
				start := c.P.Now()
				null.Call(c, 1, nil)
				r.lat = append(r.lat, c.P.Now().Sub(start))
			}
		})
		if got.drainSpins == 0 || got.rejects == 0 {
			t.Errorf("%v reliable=%v: no request met the full queue: %v", tc.mode, tc.rel, got)
		}
		if got.String() != tc.want {
			t.Errorf("%v reliable=%v:\n got  %v\n want %v", tc.mode, tc.rel, got, tc.want)
		}
	}
}

// TestStubOverlapsAnotherInjection: when the caller's stub comes to inject
// its request, a second process on the same node — a multiactive core
// worker's place — is in the middle of a bulk injection of its own. The
// kernel chain injects beside it, with an injection record of its own;
// the results are the stack-only stub's.
func TestStubOverlapsAnotherInjection(t *testing.T) {
	const want = "lat [13.6µs 13.6µs 13.6µs 13.6µs 13.6µs 13.6µs] drain 0 rejects 0 events 100 charged 262.2µs"
	got := stubUniverse(t, 3, 128, ORPC, false, func(c threads.Ctx, node int, null *Proc, r *stubRun) {
		if node != 0 {
			return
		}
		sink := null.rt.replyH // an unknown call id: counted stale, dropped
		c.Node().Shard().Spawn("core", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				pkt := c.Node().AllocPacket()
				pkt.Src, pkt.Dst, pkt.Kind, pkt.Handler = 0, 2, cm5.Bulk, int(sink)
				pkt.Payload = make([]byte, 200)
				c.Node().TryInject(p, pkt)
				p.Charge(sim.Micros(3))
			}
		})
		for i := 0; i < 6; i++ {
			start := c.P.Now()
			null.Call(c, 1, nil)
			r.lat = append(r.lat, c.P.Now().Sub(start))
		}
	})
	if got.String() != want {
		t.Errorf("\n got  %v\n want %v", got, want)
	}
}

// TestDeadlineArmedAtStubEnd: the stub arms a call's deadline when its
// charge has elapsed, as the stub on the process's stack did, so a timer
// armed during that charge for the deadline's own instant fires first.
// Here that timer wakes a second thread; the caller, woken second, goes
// to the front of the ready queue and runs first.
func TestDeadlineArmedAtStubEnd(t *testing.T) {
	var log []string
	stubUniverse(t, 2, 128, ORPC, false, func(c threads.Ctx, node int, null *Proc, r *stubRun) {
		if node == 1 {
			c.P.Charge(sim.Micros(500)) // computing, not polling: no reply in time
			return
		}
		var woken threads.Flag
		c.S.Create(c, "other", false, func(c threads.Ctx) {
			woken.Wait(c)
			log = append(log, fmt.Sprintf("other %v", c.P.Now()))
		})
		sh := c.Node().Shard()
		start := c.P.Now()
		timeout := sim.Micros(100)
		sh.At(start.Add(sim.Micros(0.25)), func() { // inside the stub's 0.5 µs
			sh.At(start.Add(timeout), woken.Set)
		})
		_, err := null.CallWithDeadline(c, 1, nil, timeout)
		log = append(log, fmt.Sprintf("caller %v %v", c.P.Now(), err))
	})
	want := "[caller 133.000us rpc: call deadline exceeded other 159.000us]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

// TestDeadlineInsideTheSend: a deadline that expires while the request is
// still being injected finds no waiter — the thread is not blocked before
// the send has left — so the call returns the moment the injection ends,
// and the thread goes on calling with the scheduler's books straight.
func TestDeadlineInsideTheSend(t *testing.T) {
	var log []string
	var stats threads.Stats
	stubUniverse(t, 2, 128, TRPC, false, func(c threads.Ctx, node int, null *Proc, r *stubRun) {
		if node != 0 {
			return
		}
		for _, timeout := range []sim.Duration{sim.Micros(1), 0, sim.Micros(1), sim.Micros(100)} {
			start := c.P.Now()
			var err error
			if timeout == 0 {
				null.Call(c, 1, nil)
			} else {
				_, err = null.CallWithDeadline(c, 1, nil, timeout)
			}
			log = append(log, fmt.Sprintf("%v %v", c.P.Now().Sub(start), err))
		}
		stats = c.S.Stats()
	})
	want := "[2.1µs rpc: call deadline exceeded 30µs <nil> 2.1µs rpc: call deadline exceeded 30µs <nil>] blocks 2 free resumes 2"
	if got := fmt.Sprintf("%v blocks %d free resumes %d", log, stats.Blocks, stats.FreeResumes); got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

// TestDeadlineWhileServingARequest: a caller blocked by its stub's kernel
// chain has the scheduler act in its place, and the first packet it pays
// for is another node's request, whose handler needs the caller's stack.
// The call's deadline fires while that packet's receive and dispatch are
// being charged. The caller's process, switched to for the handler, must
// serve it before it returns the expired call, on time — at every offset
// of the request's arrival across the deadline.
func TestDeadlineWhileServingARequest(t *testing.T) {
	const timeout = 100 // µs
	sum := fnv.New64a()
	for off := 90.0; off < 102; off += 0.1 {
		var log []string
		stubUniverse(t, 3, 128, ORPC, false, func(c threads.Ctx, node int, null *Proc, r *stubRun) {
			switch node {
			case 0:
				_, err := null.CallWithDeadline(c, 1, nil, sim.Micros(timeout))
				log = append(log, fmt.Sprintf("caller %v %v", c.P.Now(), err))
				null.Call(c, 2, nil) // the caller's thread still schedules
				log = append(log, fmt.Sprintf("caller again %v", c.P.Now()))
			case 1:
				c.P.Charge(sim.Micros(3 * timeout)) // computing, not polling
			case 2:
				c.P.Charge(sim.Micros(off))
				null.Call(c, 0, nil)
				log = append(log, fmt.Sprintf("request served %v", c.P.Now()))
			}
		})
		if len(log) != 3 || !strings.HasSuffix(log[0], ErrDeadline.Error()) {
			t.Fatalf("request sent at %.1fµs: %v", off, log)
		}
		fmt.Fprintln(sum, log)
	}
	if got, want := sum.Sum64(), uint64(0xc09f00e43b3f5571); got != want { // the stack-only stub's outcomes
		t.Errorf("outcomes hash %#x, want %#x", got, want)
	}
}
