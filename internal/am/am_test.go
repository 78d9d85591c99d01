package am

import (
	"strings"
	"testing"

	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

func universe(t *testing.T, n int, mutate func(*cm5.CostModel)) *Universe {
	t.Helper()
	eng := sim.New(11)
	cost := cm5.DefaultCostModel()
	if mutate != nil {
		mutate(&cost)
	}
	u := NewUniverse(eng, n, cost)
	t.Cleanup(eng.Shutdown)
	return u
}

func TestPingPong(t *testing.T) {
	u := universe(t, 2, nil)
	var pong HandlerID
	var gotReply bool
	var replyVal uint64
	ping := u.Register("ping", func(c threads.Ctx, pkt *cm5.Packet) {
		// Reply with the received value incremented.
		u.Endpoint(c.Node().ID()).Send(c, pkt.Src, pong, [4]uint64{pkt.W0 + 1}, nil)
	})
	pong = u.Register("pong", func(c threads.Ctx, pkt *cm5.Packet) {
		gotReply = true
		replyVal = pkt.W0
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return // node 1 serves from its idle loop
		}
		u.Endpoint(0).Send(c, 1, ping, [4]uint64{41}, nil)
		for !gotReply {
			u.Endpoint(0).Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !gotReply || replyVal != 42 {
		t.Fatalf("reply = %v %d, want 42", gotReply, replyVal)
	}
}

// TestNullAMRoundTripTime anchors the Table 1 AM baseline: a null
// round trip should land near 13 microseconds.
func TestNullAMRoundTripTime(t *testing.T) {
	u := universe(t, 2, nil)
	var reply HandlerID
	done := false
	req := u.Register("req", func(c threads.Ctx, pkt *cm5.Packet) {
		u.Endpoint(c.Node().ID()).Send(c, pkt.Src, reply, [4]uint64{}, nil)
	})
	reply = u.Register("reply", func(c threads.Ctx, pkt *cm5.Packet) { done = true })
	var rt sim.Duration
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		start := c.P.Now()
		u.Endpoint(0).Send(c, 1, req, [4]uint64{}, nil)
		for !done {
			u.Endpoint(0).Poll(c)
		}
		rt = c.P.Now().Sub(start)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt < sim.Micros(9) || rt > sim.Micros(17) {
		t.Fatalf("null AM round trip = %v, want ~13us", rt)
	}
}

func TestPayloadDelivery(t *testing.T) {
	u := universe(t, 2, nil)
	var got []byte
	h := u.Register("data", func(c threads.Ctx, pkt *cm5.Packet) {
		got = append([]byte(nil), pkt.Payload...)
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		u.Endpoint(0).Send(c, 1, h, [4]uint64{}, []byte("0123456789abcdef"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "0123456789abcdef" {
		t.Fatalf("payload = %q", got)
	}
}

func TestBulkDelivery(t *testing.T) {
	u := universe(t, 2, nil)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i % 251)
	}
	var got []byte
	h := u.Register("bulk", func(c threads.Ctx, pkt *cm5.Packet) {
		got = pkt.Payload
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		u.Endpoint(0).SendBulk(c, 1, h, [4]uint64{}, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4096 || got[4095] != byte(4095%251) {
		t.Fatalf("bulk data corrupted (len %d)", len(got))
	}
	if u.Stats().BulkSends != 1 {
		t.Fatalf("BulkSends = %d", u.Stats().BulkSends)
	}
}

// TestSendDrainsWhenFull: with a tiny NIC queue and a slow receiver, Send
// must keep retrying (draining its own input) rather than deadlocking.
func TestSendDrainsWhenFull(t *testing.T) {
	u := universe(t, 2, func(c *cm5.CostModel) { c.NICQueueCap = 2 })
	received := 0
	h := u.Register("count", func(c threads.Ctx, pkt *cm5.Packet) { received++ })
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < 20; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
			}
			return
		}
		// Node 1: busy-compute, polling rarely, so node 0 hits a full queue.
		for received < 20 {
			c.P.Charge(sim.Micros(50))
			ep.PollAll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if received != 20 {
		t.Fatalf("received = %d, want 20", received)
	}
	if u.Stats().DrainSpins == 0 {
		t.Fatal("expected drain spins against the full queue")
	}
}

// TestCrossTraffic: two nodes flooding each other with tiny queues must
// not deadlock, because Send drains while retrying.
func TestCrossTraffic(t *testing.T) {
	u := universe(t, 2, func(c *cm5.CostModel) { c.NICQueueCap = 2 })
	counts := [2]int{}
	h := u.Register("count", func(c threads.Ctx, pkt *cm5.Packet) {
		counts[c.Node().ID()]++
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		for i := 0; i < 50; i++ {
			ep.Send(c, 1-node, h, [4]uint64{}, nil)
		}
		for counts[node] < 50 {
			ep.Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 50 || counts[1] != 50 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestHandlerCannotBlock(t *testing.T) {
	u := universe(t, 2, nil)
	mu := threads.NewMutex(u.Scheduler(1))
	panicked := false
	h := u.Register("blocker", func(c threads.Ctx, pkt *cm5.Packet) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		mu.Lock(c) // mutex is held by node 1's main: must panic, not block
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			mu.Lock(c)
			for !panicked {
				u.Endpoint(1).Poll(c)
			}
			mu.Unlock(c)
			return
		}
		u.Endpoint(0).Send(c, 1, h, [4]uint64{}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("handler blocking on held mutex did not panic")
	}
}

func TestSPMDDetectsDeadlock(t *testing.T) {
	u := universe(t, 2, nil)
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			// Waits forever: nobody ever resumes us.
			c.S.Block(c)
		}
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestDeadlockReportDeterministic: the deadlock error lists a node's
// blocked threads in the order they blocked, so provoking the same
// deadlock twice yields the same text byte for byte. (The list used to be
// a map walk, in a different order on every run.)
func TestDeadlockReportDeterministic(t *testing.T) {
	deadlock := func() string {
		u := universe(t, 2, nil)
		_, err := u.SPMD(func(c threads.Ctx, node int) {
			if node == 1 {
				return
			}
			// Eight waiters, two of which are woken again and finish: the
			// report must list the other six and main, in block order.
			var ws []threads.Handle
			for _, name := range []string{"h", "b", "f", "d", "a", "g", "c", "e"} {
				ws = append(ws, c.S.Create(c, name, false, func(c threads.Ctx) { c.S.Block(c) }))
			}
			c.S.Sleep(c, sim.Micros(100)) // every waiter runs and blocks
			ws[1].Resume(false)
			ws[4].Resume(false)
			c.S.Block(c)
		})
		if err == nil {
			t.Fatal("expected deadlock error")
		}
		return err.Error()
	}
	first := deadlock()
	if want := "(blocked: [h f d g c e main/0], 0 queued packets)"; !strings.Contains(first, want) {
		t.Fatalf("deadlock report %q does not list the blocked threads in block order %q", first, want)
	}
	for i := 0; i < 4; i++ {
		if again := deadlock(); again != first {
			t.Fatalf("deadlock report differs between identical runs:\n%s\n%s", first, again)
		}
	}
}

// TestDeadlockReportAfterRecycling: thread descriptors are recycled, and the
// ring of blocked threads the report walks is linked through them. Three
// generations on one descriptor — two that exit, a third that blocks for
// good — must be reported as the third alone, under its own name.
func TestDeadlockReportAfterRecycling(t *testing.T) {
	u := universe(t, 2, nil)
	var tenants []*threads.Thread
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			return
		}
		for _, name := range []string{"first", "second", "third"} {
			c.S.Create(c, name, false, func(c threads.Ctx) {
				tenants = append(tenants, c.T)
				c.S.Sleep(c, sim.Micros(5)) // through the ring and out again
				if name == "third" {
					c.S.Block(c)
				}
			})
			c.S.Sleep(c, sim.Micros(50)) // the thread runs, and unless it is the third, exits
		}
		c.S.Block(c)
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if len(tenants) != 3 || tenants[0] != tenants[1] || tenants[1] != tenants[2] {
		t.Fatalf("the three threads ran on descriptors %p: want one descriptor, three times", tenants)
	}
	if want := "(blocked: [third main/0], 0 queued packets)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("deadlock report %q, want %q", err, want)
	}
}

func TestHandlerRunsOnIdleLoopWhenMainBlocked(t *testing.T) {
	u := universe(t, 2, nil)
	served := false
	h := u.Register("serve", func(c threads.Ctx, pkt *cm5.Packet) {
		if !c.IsHandler() {
			t.Error("handler context has a thread")
		}
		served = true
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			return // main finishes; idle loop polls for the message
		}
		c.P.Charge(sim.Micros(5))
		u.Endpoint(0).Send(c, 1, h, [4]uint64{}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !served {
		t.Fatal("idle loop did not dispatch the handler")
	}
}

func TestUniverseDeterminism(t *testing.T) {
	runOnce := func() (sim.Time, uint64) {
		eng := sim.New(21)
		u := NewUniverse(eng, 4, cm5.DefaultCostModel())
		defer eng.Shutdown()
		counts := make([]int, 4)
		var h HandlerID
		h = u.Register("relay", func(c threads.Ctx, pkt *cm5.Packet) {
			me := c.Node().ID()
			counts[me]++
			if pkt.W0 > 0 {
				u.Endpoint(me).Send(c, int(pkt.W1), h, [4]uint64{pkt.W0 - 1, uint64(eng.Rand().Intn(4))}, nil)
			}
		})
		end, err := u.SPMD(func(c threads.Ctx, node int) {
			u.Endpoint(node).Send(c, (node+1)%4, h, [4]uint64{20, uint64((node + 2) % 4)}, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		return end, u.Stats().HandlersRun
	}
	e1, h1 := runOnce()
	e2, h2 := runOnce()
	if e1 != e2 || h1 != h2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", e1, h1, e2, h2)
	}
}
