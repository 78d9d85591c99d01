package am

import (
	"testing"

	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestNestedDispatchDepth: a handler that sends into a full network
// drains and dispatches nested handlers; MaxDepth must record it.
func TestNestedDispatchDepth(t *testing.T) {
	u := universe(t, 2, func(c *cm5.CostModel) { c.NICQueueCap = 1 })
	var relay, sink HandlerID
	received := 0
	sink = u.Register("sink", func(c threads.Ctx, pkt *cm5.Packet) { received++ })
	relay = u.Register("relay", func(c threads.Ctx, pkt *cm5.Packet) {
		// Reply into a possibly-full queue: Send drains our own input,
		// which dispatches further relays nested inside this handler.
		u.Endpoint(1).Send(c, 0, sink, [4]uint64{}, nil)
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node != 0 {
			return
		}
		for i := 0; i < 8; i++ {
			ep.Send(c, 1, relay, [4]uint64{}, nil)
		}
		for received < 8 {
			ep.Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if received != 8 {
		t.Fatalf("received = %d", received)
	}
}

// TestHandlerTimeAccounted: the universe tracks virtual time spent in
// handlers.
func TestHandlerTimeAccounted(t *testing.T) {
	u := universe(t, 2, nil)
	h := u.Register("work", func(c threads.Ctx, pkt *cm5.Packet) {
		c.P.Charge(sim.Micros(5))
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		for i := 0; i < 4; i++ {
			u.Endpoint(0).Send(c, 1, h, [4]uint64{}, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Stats().HandlerTime; got != sim.Micros(20) {
		t.Fatalf("HandlerTime = %v, want 20us", got)
	}
}

// TestSendToUnregisteredHandlerPanics: handler ids are program text;
// forging one is a fatal programming error.
func TestSendToUnregisteredHandlerPanics(t *testing.T) {
	u := universe(t, 2, nil)
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for unregistered handler")
			}
		}()
		u.Endpoint(0).Send(c, 1, HandlerID(42), [4]uint64{}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHandlerNames: registration names are retrievable for diagnostics.
func TestHandlerNames(t *testing.T) {
	u := universe(t, 1, nil)
	id := u.Register("my/handler", func(c threads.Ctx, pkt *cm5.Packet) {})
	if u.HandlerName(id) != "my/handler" {
		t.Fatalf("name = %q", u.HandlerName(id))
	}
}
