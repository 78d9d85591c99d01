package reliable

import (
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestLossyDelivery pushes a burst of messages through a 20%-lossy link
// and checks exactly-once delivery with retransmissions doing the work.
func TestLossyDelivery(t *testing.T) {
	const msgs = 200
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 7, DropProb: 0.20})
	tr := Attach(u, Options{})
	got := make(map[uint64]int)
	recvd := 0
	h := u.Register("count", func(c threads.Ctx, pkt *cm5.Packet) {
		got[pkt.W0]++
		recvd++
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 1 {
			for recvd < msgs {
				ep.Poll(c)
				c.P.Charge(sim.Micros(2))
				c.S.Yield(c)
			}
			return
		}
		for i := 0; i < msgs; i++ {
			ep.Send(c, 1, h, [4]uint64{uint64(i), 0, 0, 0}, nil)
			c.P.Charge(sim.Micros(1))
		}
		for recvd < msgs { // wait out the retransmissions (shared-memory test shortcut)
			ep.Poll(c)
			c.P.Charge(sim.Micros(5))
			c.S.Yield(c)
		}
	})
	if err != nil {
		t.Fatalf("SPMD: %v", err)
	}
	if recvd != msgs {
		t.Fatalf("delivered %d of %d", recvd, msgs)
	}
	for i := uint64(0); i < msgs; i++ {
		if got[i] != 1 {
			t.Fatalf("message %d delivered %d times", i, got[i])
		}
	}
	st := tr.Stats()
	if st.Retransmits == 0 {
		t.Fatalf("expected retransmissions under 20%% loss, got none (stats %+v)", st)
	}
	if st.GaveUp != 0 {
		t.Fatalf("gave up on %d messages on a live link", st.GaveUp)
	}
	fs := u.Machine().FaultStats()
	if fs.Dropped == 0 {
		t.Fatalf("fault layer dropped nothing at 20%% loss")
	}
	t.Logf("sent=%d retx=%d dropped=%d dupsSuppressed=%d", st.DataSent, st.Retransmits, fs.Dropped, st.DupsSuppressed)
}

// TestDuplicateSuppression forces network-level duplication and checks the
// receiver delivers each message once.
func TestDuplicateSuppression(t *testing.T) {
	const msgs = 100
	eng := sim.New(2)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 3, DupProb: 0.5})
	tr := Attach(u, Options{})
	recvd := 0
	h := u.Register("count", func(c threads.Ctx, pkt *cm5.Packet) { recvd++ })
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 1 {
			for recvd < msgs {
				ep.Poll(c)
				c.P.Charge(sim.Micros(2))
				c.S.Yield(c)
			}
			return
		}
		for i := 0; i < msgs; i++ {
			ep.Send(c, 1, h, [4]uint64{uint64(i), 0, 0, 0}, nil)
			c.P.Charge(sim.Micros(3))
		}
	})
	if err != nil {
		t.Fatalf("SPMD: %v", err)
	}
	if recvd != msgs {
		t.Fatalf("delivered %d of %d", recvd, msgs)
	}
	st := tr.Stats()
	if st.DupsSuppressed == 0 {
		t.Fatalf("expected suppressed duplicates at 50%% dup, got none")
	}
	if fs := u.Machine().FaultStats(); fs.Duplicated == 0 {
		t.Fatalf("fault layer duplicated nothing")
	}
}

// TestGiveUpOnCrashedReceiver checks that retransmission to a dead node is
// bounded: the sender abandons the message and the simulation terminates.
func TestGiveUpOnCrashedReceiver(t *testing.T) {
	eng := sim.New(3)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 1, Crashes: []cm5.Crash{{Node: 1, At: sim.Time(50 * sim.Microsecond)}}})
	tr := Attach(u, Options{RTO: sim.Micros(100), MaxAttempts: 5})
	h := u.Register("nop", func(c threads.Ctx, pkt *cm5.Packet) {})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 1 {
			// Crashed at t=50us; stop participating once the plan says so.
			for !ep.Node().Crashed() {
				ep.Poll(c)
				c.P.Charge(sim.Micros(5))
				c.S.Yield(c)
			}
			return
		}
		c.P.Charge(sim.Micros(100)) // past the crash
		ep.Send(c, 1, h, [4]uint64{42, 0, 0, 0}, nil)
	})
	if err != nil {
		t.Fatalf("SPMD: %v", err)
	}
	st := tr.Stats()
	if st.GaveUp != 1 {
		t.Fatalf("GaveUp = %d, want 1 (stats %+v)", st.GaveUp, st)
	}
	if st.Retransmits != 4 {
		t.Fatalf("Retransmits = %d, want 4 (MaxAttempts=5 including the first send)", st.Retransmits)
	}
	if ns := tr.NodeStats(0); ns.GaveUp != 1 || ns.Retransmits != 4 {
		t.Fatalf("node 0 stats = %+v", ns)
	}
	if fs := u.Machine().FaultStats(); fs.Blackholed == 0 {
		t.Fatalf("expected blackholed packets toward the crashed node")
	}
}

// TestBackoffCapped checks that retransmit backoff doubles only up to
// RTOMax: a sender facing a permanently partitioned peer gives up after
// MaxAttempts in bounded virtual time, with the cap keeping the schedule
// arithmetic (RTO + (MaxAttempts-1)·RTOMax) rather than geometric.
func TestBackoffCapped(t *testing.T) {
	opts := Options{RTO: sim.Micros(100), RTOMax: sim.Micros(200), MaxAttempts: 6}
	eng := sim.New(4)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	// Link 0->1 drops everything forever: the ack can never arrive.
	u.Machine().SetFaultPlan(&cm5.FaultPlan{
		Seed:       1,
		Partitions: []cm5.Partition{{Src: 0, Dst: 1, From: 0, To: sim.Time(sim.Second)}},
	})
	tr := Attach(u, opts)
	h := u.Register("nop", func(c threads.Ctx, pkt *cm5.Packet) {})
	var sentAt sim.Time
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		sentAt = c.P.Now()
		u.Endpoint(0).Send(c, 1, h, [4]uint64{42, 0, 0, 0}, nil)
	})
	if err != nil {
		t.Fatalf("SPMD: %v", err)
	}
	// The give-up is the last scheduled work, so quiescence time is the
	// give-up time.
	gaveUpAt := eng.Now()
	st := tr.Stats()
	if st.GaveUp != 1 {
		t.Fatalf("GaveUp = %d, want 1 (stats %+v)", st.GaveUp, st)
	}
	if want := uint64(opts.MaxAttempts - 1); st.Retransmits != want {
		t.Fatalf("Retransmits = %d, want %d", st.Retransmits, want)
	}
	// Timer schedule: RTO fires the first retransmit; each of the
	// remaining MaxAttempts-1 waits is the RTOMax cap (uncapped doubling
	// would be 100+200+400+800+1600+3200 = 6.3ms) plus up to DefaultJitter
	// of deterministic per-flight jitter. Allow slack for send costs and
	// daemon scheduling, but stay well under the uncapped sum.
	capped := sim.Duration(opts.RTO) + sim.Duration(opts.MaxAttempts-1)*opts.RTOMax
	maxJitter := sim.Duration(float64(opts.MaxAttempts-1) * float64(opts.RTOMax) * DefaultJitter)
	if d := gaveUpAt.Sub(sentAt); d < capped || d > capped+maxJitter+sim.Micros(100) {
		t.Fatalf("gave up after %v, want within [%v, %v] (capped jittered backoff)",
			d, capped, capped+maxJitter+sim.Micros(100))
	}
}

// TestBackoffJitterDisabled pins the exact unjittered schedule: with
// Jitter < 0 the give-up lands at RTO + (MaxAttempts-1)*RTOMax to within
// send costs, which also proves the jittered default actually added time
// on top of the same base schedule.
func TestBackoffJitterDisabled(t *testing.T) {
	opts := Options{RTO: sim.Micros(100), RTOMax: sim.Micros(200), MaxAttempts: 6, Jitter: -1}
	eng := sim.New(4)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	u.Machine().SetFaultPlan(&cm5.FaultPlan{
		Seed:       1,
		Partitions: []cm5.Partition{{Src: 0, Dst: 1, From: 0, To: sim.Time(sim.Second)}},
	})
	tr := Attach(u, opts)
	h := u.Register("nop", func(c threads.Ctx, pkt *cm5.Packet) {})
	var sentAt sim.Time
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		sentAt = c.P.Now()
		u.Endpoint(0).Send(c, 1, h, [4]uint64{42, 0, 0, 0}, nil)
	})
	if err != nil {
		t.Fatalf("SPMD: %v", err)
	}
	if st := tr.Stats(); st.GaveUp != 1 {
		t.Fatalf("GaveUp = %d, want 1 (stats %+v)", st.GaveUp, st)
	}
	capped := sim.Duration(opts.RTO) + sim.Duration(opts.MaxAttempts-1)*opts.RTOMax
	if d := eng.Now().Sub(sentAt); d < capped || d > capped+sim.Micros(100) {
		t.Fatalf("gave up after %v, want about %v (exact capped backoff)", d, capped)
	}
}

// TestJitterDeterministic: the jittered retransmit schedule is a pure
// function of the flight, not of run-to-run state — two identical lossy
// runs quiesce at the same virtual time with the same counters.
func TestJitterDeterministic(t *testing.T) {
	run := func() (sim.Time, Stats) {
		eng := sim.New(9)
		defer eng.Shutdown()
		u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
		u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 13, DropProb: 0.3})
		tr := Attach(u, Options{})
		recvd := 0
		h := u.Register("count", func(c threads.Ctx, pkt *cm5.Packet) { recvd++ })
		_, err := u.SPMD(func(c threads.Ctx, node int) {
			ep := u.Endpoint(node)
			if node == 1 {
				for recvd < 30 {
					ep.Poll(c)
					c.P.Charge(sim.Micros(2))
					c.S.Yield(c)
				}
				return
			}
			for i := 0; i < 30; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i), 0, 0, 0}, nil)
				c.P.Charge(sim.Micros(2))
			}
		})
		if err != nil {
			t.Fatalf("SPMD: %v", err)
		}
		return eng.Now(), tr.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("jittered schedule not deterministic: %v/%v %+v/%+v", t1, t2, s1, s2)
	}
	if s1.Retransmits == 0 {
		t.Fatalf("no retransmits at 30%% loss (stats %+v)", s1)
	}
}

// TestPartitionGiveUpBounded: a message into a permanent partition does
// not hang the simulation — MaxAttempts bounds it even at defaults, and
// the rest of the traffic is unaffected.
func TestPartitionGiveUpBounded(t *testing.T) {
	eng := sim.New(5)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 3, cm5.DefaultCostModel())
	u.Machine().SetFaultPlan(&cm5.FaultPlan{
		Seed:       2,
		Partitions: []cm5.Partition{{Src: 0, Dst: 1, From: 0, To: sim.Time(sim.Second)}},
	})
	tr := Attach(u, Options{})
	recvd := 0
	h := u.Register("count", func(c threads.Ctx, pkt *cm5.Packet) { recvd++ })
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		switch node {
		case 0:
			ep.Send(c, 1, h, [4]uint64{1, 0, 0, 0}, nil) // into the partition
			ep.Send(c, 2, h, [4]uint64{2, 0, 0, 0}, nil) // healthy link
		case 2:
			for recvd == 0 {
				ep.Poll(c)
				c.P.Charge(sim.Micros(2))
				c.S.Yield(c)
			}
		}
	})
	if err != nil {
		t.Fatalf("SPMD: %v", err)
	}
	st := tr.Stats()
	if st.GaveUp != 1 {
		t.Fatalf("GaveUp = %d, want 1 (stats %+v)", st.GaveUp, st)
	}
	if recvd != 1 {
		t.Fatalf("healthy link delivered %d messages, want 1", recvd)
	}
	// Default options: 150us RTO, 11 further attempts capped at 2.4ms each
	// puts the give-up comfortably under 30ms of virtual time.
	if end := eng.Now(); end > sim.Time(30*sim.Millisecond) {
		t.Fatalf("simulation ran to %v, want bounded give-up", end)
	}
}

// TestEnvelopeW2W3Panic documents the framing limit: messages already
// using W2/W3 cannot ride the reliable channel.
func TestEnvelopeW2W3Panic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for W2/W3 user")
		}
	}()
	envelopeWords(1, 0, [4]uint64{0, 0, 7, 0})
}

// TestDeterminism runs the lossy burst twice and compares trace hashes,
// fault hashes, and final times.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, sim.Time) {
		eng := sim.New(11)
		defer eng.Shutdown()
		ht := sim.NewHashTracer()
		eng.SetTracer(ht)
		u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
		u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 5, DropProb: 0.1, DupProb: 0.05, ExtraJitter: sim.Micros(4)})
		Attach(u, Options{})
		recvd := 0
		h := u.Register("count", func(c threads.Ctx, pkt *cm5.Packet) { recvd++ })
		elapsed, err := u.SPMD(func(c threads.Ctx, node int) {
			ep := u.Endpoint(node)
			if node == 1 {
				for recvd < 50 {
					ep.Poll(c)
					c.P.Charge(sim.Micros(2))
					c.S.Yield(c)
				}
				return
			}
			for i := 0; i < 50; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i), 0, 0, 0}, nil)
				c.P.Charge(sim.Micros(2))
			}
		})
		if err != nil {
			t.Fatalf("SPMD: %v", err)
		}
		return ht.Sum(), u.Machine().FaultTraceHash(), elapsed
	}
	h1, f1, t1 := run()
	h2, f2, t2 := run()
	if h1 != h2 || f1 != f2 || t1 != t2 {
		t.Fatalf("nondeterministic: trace %x/%x fault %x/%x time %v/%v", h1, h2, f1, f2, t1, t2)
	}
}

// TestPendingMsgRecycled drives a lossy, duplicating link to quiescence and
// checks the pendingMsg free list: every struct ever made is back on it
// exactly once, retired and unreferenced, and far fewer were made than
// messages sent — acks, retransmit queueing and the daemon's yielding
// resends never strand or double-release one.
func TestPendingMsgRecycled(t *testing.T) {
	const msgs = 400
	eng := sim.New(11)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 5, DropProb: 0.15, DupProb: 0.10})
	tr := Attach(u, Options{})
	recvd := 0
	h := u.Register("count", func(c threads.Ctx, pkt *cm5.Packet) { recvd++ })
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < msgs; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i), 0, 0, 0}, nil)
				for j := 0; j < 4; j++ { // take acks as they come, so only a few are outstanding
					ep.Poll(c)
					c.P.Charge(sim.Micros(5))
					c.S.Yield(c)
				}
			}
		}
		// Poll until every message has arrived and been acknowledged.
		for recvd < msgs || tr.nodes[0].peers.At(1).out.pending.n > 0 {
			ep.Poll(c)
			c.P.Charge(sim.Micros(5))
			c.S.Yield(c)
		}
	})
	if err != nil {
		t.Fatalf("SPMD: %v", err)
	}
	st := tr.Stats()
	if st.Retransmits == 0 || st.GaveUp != 0 {
		t.Fatalf("want retransmits and no give-ups, got %+v", st)
	}
	ns := tr.nodes[0]
	if len(ns.due) != 0 || ns.dueHead != 0 {
		t.Fatalf("%d messages still queued for the daemon (cursor %d)", len(ns.due), ns.dueHead)
	}
	seen := make(map[*pendingMsg]bool)
	for pm := ns.freePM; pm != nil; pm = pm.next {
		if seen[pm] {
			t.Fatal("pendingMsg released twice: the free list has a cycle")
		}
		seen[pm] = true
		if !pm.done || pm.busy || pm.payload != nil || pm.timer != (sim.Timer{}) {
			t.Fatalf("free-listed pendingMsg seq %d still in use: %+v", pm.seq, pm)
		}
	}
	if len(seen) == 0 || len(seen) > msgs/4 {
		t.Fatalf("%d pendingMsg structs made for %d messages, want a small pool", len(seen), msgs)
	}
	t.Logf("sent=%d retx=%d pool=%d", st.DataSent, st.Retransmits, len(seen))
}
