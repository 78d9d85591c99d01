package cm5

import (
	"testing"

	"repro/internal/sim"
)

func testMachine(t *testing.T, n int) (*sim.Engine, *Machine) {
	t.Helper()
	eng := sim.New(42)
	m := NewMachine(eng, n, DefaultCostModel())
	t.Cleanup(eng.Shutdown)
	return eng, m
}

func TestInjectAndPoll(t *testing.T) {
	eng, m := testMachine(t, 2)
	cost := m.Cost()
	var recvAt sim.Time
	var got *Packet
	eng.Spawn("sender", func(p *sim.Proc) {
		pkt := &Packet{Src: 0, Dst: 1, Kind: Small, Handler: 3, W0: 7, Payload: []byte("hi")}
		if !m.Node(0).TryInject(p, pkt) {
			t.Error("inject refused on empty network")
		}
	})
	eng.Spawn("receiver", func(p *sim.Proc) {
		n := m.Node(1)
		for got == nil {
			if pkt := n.PollPacket(p); pkt != nil {
				got = pkt
				recvAt = p.Now()
				return
			}
			if p.Now() > sim.Time(sim.Micros(100)) {
				t.Error("no packet within 100us")
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not received")
	}
	if got.Handler != 3 || got.W0 != 7 || string(got.Payload) != "hi" {
		t.Fatalf("packet corrupted: %+v", got)
	}
	// Arrival: send overhead + wire latency; receive adds overhead plus
	// some number of empty polls before arrival.
	earliest := sim.Time(0).Add(cost.PacketSendOverhead + cost.WireLatency + cost.PacketRecvOverhead)
	if recvAt < earliest {
		t.Fatalf("received at %v, before earliest possible %v", recvAt, earliest)
	}
	st := m.Stats()
	if st.SmallSent != 1 || st.BytesSent != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestInjectBackpressure(t *testing.T) {
	eng := sim.New(1)
	cost := DefaultCostModel()
	cost.NICQueueCap = 2
	m := NewMachine(eng, 2, cost)
	defer eng.Shutdown()
	rejected := 0
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			pkt := &Packet{Src: 0, Dst: 1, Kind: Small}
			if !m.Node(0).TryInject(p, pkt) {
				rejected++
				p.Charge(sim.Micros(1))
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rejected != 3 {
		t.Fatalf("rejected = %d, want 3 (capacity 2)", rejected)
	}
	if m.Stats().FullRejects != 3 {
		t.Fatalf("FullRejects = %d, want 3", m.Stats().FullRejects)
	}
	// Draining the queue frees capacity again.
	eng2 := sim.New(1)
	m2 := NewMachine(eng2, 2, cost)
	defer eng2.Shutdown()
	sent := 0
	eng2.Spawn("sender", func(p *sim.Proc) {
		for sent < 5 {
			pkt := &Packet{Src: 0, Dst: 1, Kind: Small}
			if m2.Node(0).TryInject(p, pkt) {
				sent++
			} else {
				p.Charge(sim.Micros(5))
			}
		}
	})
	eng2.Spawn("drainer", func(p *sim.Proc) {
		drained := 0
		for drained < 5 {
			if pkt := m2.Node(1).PollPacket(p); pkt != nil {
				drained++
			}
			if p.Now() > sim.Time(sim.Micros(10000)) {
				t.Error("drain stalled")
				return
			}
		}
	})
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if sent != 5 {
		t.Fatalf("sent = %d, want 5 after draining", sent)
	}
}

func TestFIFOPerPair(t *testing.T) {
	eng, m := testMachine(t, 2)
	const k = 50
	var order []uint64
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			pkt := &Packet{Src: 0, Dst: 1, Kind: Small, W0: uint64(i)}
			for !m.Node(0).TryInject(p, pkt) {
				p.Charge(sim.Micros(1))
			}
		}
	})
	eng.Spawn("receiver", func(p *sim.Proc) {
		for len(order) < k {
			if pkt := m.Node(1).PollPacket(p); pkt != nil {
				order = append(order, pkt.W0)
			}
			if p.Now() > sim.Time(sim.Micros(100000)) {
				t.Error("receive stalled")
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("out-of-order delivery at %d: got %d", i, v)
		}
	}
}

func TestBulkCostsMoreAndCarriesData(t *testing.T) {
	eng, m := testMachine(t, 2)
	cost := m.Cost()
	payload := make([]byte, 640)
	for i := range payload {
		payload[i] = byte(i)
	}
	var sendDone sim.Time
	eng.Spawn("sender", func(p *sim.Proc) {
		pkt := &Packet{Src: 0, Dst: 1, Kind: Bulk, Payload: payload}
		if !m.Node(0).TryInject(p, pkt) {
			t.Error("bulk inject refused")
		}
		sendDone = p.Now()
	})
	var got *Packet
	eng.Spawn("receiver", func(p *sim.Proc) {
		for got == nil && p.Now() < sim.Time(sim.Micros(10000)) {
			got = m.Node(1).PollPacket(p)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantBusy := cost.BulkSetup + 640*cost.BulkPerByte
	if sendDone != sim.Time(0).Add(wantBusy) {
		t.Fatalf("sender busy until %v, want %v", sendDone, sim.Time(0).Add(wantBusy))
	}
	if got == nil || len(got.Payload) != 640 || got.Payload[639] != byte(639%256) {
		t.Fatalf("bulk payload corrupted: %v", got)
	}
	if m.Stats().BulkSent != 1 {
		t.Fatalf("BulkSent = %d", m.Stats().BulkSent)
	}
}

func TestSmallPacketPayloadLimit(t *testing.T) {
	eng, m := testMachine(t, 2)
	eng.Spawn("sender", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for oversized small packet")
			}
		}()
		pkt := &Packet{Src: 0, Dst: 1, Kind: Small, Payload: make([]byte, 17)}
		m.Node(0).TryInject(p, pkt)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWakeCallbackOnDelivery(t *testing.T) {
	eng, m := testMachine(t, 2)
	var waiter *sim.Proc
	var wokeAt sim.Time
	waiter = eng.Spawn("idle", func(p *sim.Proc) {
		m.Node(1).SetWake(func() {
			if waiter.Parked() {
				waiter.Unpark()
			}
		})
		p.Park()
		wokeAt = p.Now()
		if m.Node(1).Pending() != 1 {
			t.Error("no pending packet after wake")
		}
	})
	eng.Spawn("sender", func(p *sim.Proc) {
		p.Charge(sim.Micros(3))
		m.Node(0).TryInject(p, &Packet{Src: 0, Dst: 1, Kind: Small})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	cost := m.Cost()
	want := sim.Time(0).Add(sim.Micros(3) + cost.PacketSendOverhead + cost.WireLatency)
	if wokeAt != want {
		t.Fatalf("woke at %v, want %v", wokeAt, want)
	}
}

func TestNetworkFullObservable(t *testing.T) {
	eng := sim.New(1)
	cost := DefaultCostModel()
	cost.NICQueueCap = 1
	m := NewMachine(eng, 2, cost)
	defer eng.Shutdown()
	eng.Spawn("sender", func(p *sim.Proc) {
		if m.Node(0).NetworkFull(1) {
			t.Error("network full before any send")
		}
		m.Node(0).TryInject(p, &Packet{Src: 0, Dst: 1, Kind: Small})
		if !m.Node(0).NetworkFull(1) {
			t.Error("network not full after filling capacity-1 queue")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitPacket: the wait returns on the poll grid it started — the first
// instant start + k*PollEmpty at or after the arrival — with the k polls
// charged and counted but only one of them executed; it returns at once
// when a packet is already queued; and a node has one CPU, so a second
// process waiting on it is a bug that panics.
func TestWaitPacket(t *testing.T) {
	eng, m := testMachine(t, 2)
	cost := m.Cost()
	const start = 1300 * sim.Nanosecond // off the sender's grid
	var woke, again sim.Time
	eng.Spawn("sender", func(p *sim.Proc) {
		m.Node(0).TryInject(p, &Packet{Src: 0, Dst: 1, Kind: Small})
	})
	eng.Spawn("receiver", func(p *sim.Proc) {
		p.Charge(start)
		m.Node(1).WaitPacket(p)
		woke = p.Now()
		m.Node(1).WaitPacket(p) // the packet is still queued
		again = p.Now()
	})
	eng.Spawn("intruder", func(p *sim.Proc) {
		p.Charge(2 * start)
		defer func() {
			if recover() == nil {
				t.Error("second waiter on one node did not panic")
			}
		}()
		m.Node(1).WaitPacket(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	arrival := cost.PacketSendOverhead + cost.WireLatency
	k := (arrival - start + cost.PollEmpty - 1) / cost.PollEmpty
	if want := sim.Time(start + k*cost.PollEmpty); woke != want || again != want {
		t.Fatalf("woke at %v, then %v; want both %v (arrival %v, k=%d)", woke, again, want, arrival, k)
	}
	if got, want := eng.Charged(), cost.PacketSendOverhead+start+k*cost.PollEmpty+2*start; got != want {
		t.Errorf("Charged() = %v, want %v", got, want)
	}
	if eng.Elided() != uint64(k-1) {
		t.Errorf("Elided() = %d, want %d", eng.Elided(), k-1)
	}
}
