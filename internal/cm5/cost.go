package cm5

import "repro/internal/sim"

// CostModel holds every virtual-time constant charged by the machine model
// and the software layers above it. All durations are virtual time.
//
// The default values (DefaultCostModel) are calibrated so that the
// microbenchmarks of the paper come out at their measured values:
//
//	null AM round trip            ~13 us   (Table 1)
//	null ORPC round trip          ~14 us   (Table 1)
//	null TRPC, idle server        ~21 us   (Table 1: +7 us thread create)
//	null TRPC, busy server        ~74 us   (Table 1: +7+52 us create+switch)
//	bulk transfer                 +~40 us  (section 4.1.2)
type CostModel struct {
	// Data network.
	WireLatency        sim.Duration // one-way transit time of a packet
	WireJitter         sim.Duration // extra uniform latency in [0, WireJitter); 0 = none
	PacketSendOverhead sim.Duration // CPU cost to inject a small packet
	PacketRecvOverhead sim.Duration // CPU cost to eject a packet during poll
	PollEmpty          sim.Duration // CPU cost of a poll that finds nothing
	NICQueueCap        int          // per-node input queue capacity, packets

	// Bulk transfer (the CM-5 scopy block-transfer primitive). A transfer
	// larger than MaxPayload bytes must use the bulk path.
	BulkSetup   sim.Duration // fixed port-allocation/setup cost
	BulkPerByte sim.Duration // per-byte streaming cost (sender CPU is busy)

	// Thread package.
	ThreadCreate  sim.Duration // find + initialize a thread structure
	ContextSwitch sim.Duration // full save+restore between two contexts
	YieldCheck    sim.Duration // cost of a yield that finds nothing to do
	LockOp        sim.Duration // uncontended lock/unlock/signal bookkeeping

	// Control network.
	BarrierLatency sim.Duration // hardware barrier, all-node
	ReduceLatency  sim.Duration // hardware reduction/global-OR combine time

	// InterruptOverhead is the cost of taking a message interrupt
	// (trap, register spill, return). "Taking interrupts is fairly
	// expensive on the CM-5" (section 4) — which is why the paper's
	// applications poll; the interrupt-mode experiments quantify that
	// choice.
	InterruptOverhead sim.Duration

	// Handler and stub layers.
	HandlerDispatch sim.Duration // invoke a handler from a received packet
	StubClient      sim.Duration // RPC client stub (marshal, call bookkeeping)
	StubServer      sim.Duration // RPC server stub (unmarshal, dispatch checks)
}

// DefaultCostModel returns the calibrated CM-5 constants. See CostModel.
func DefaultCostModel() CostModel {
	return CostModel{
		WireLatency:        sim.Micros(2.3),
		PacketSendOverhead: sim.Micros(1.6),
		PacketRecvOverhead: sim.Micros(1.4),
		PollEmpty:          sim.Micros(0.4),
		NICQueueCap:        128,

		BulkSetup:   sim.Micros(40),
		BulkPerByte: sim.Micros(0.12),

		ThreadCreate:  sim.Micros(7),
		ContextSwitch: sim.Micros(52),
		YieldCheck:    sim.Micros(0.5),
		LockOp:        sim.Micros(0.3),

		BarrierLatency: sim.Micros(5),
		ReduceLatency:  sim.Micros(7),

		InterruptOverhead: sim.Micros(50),

		HandlerDispatch: sim.Micros(1.0),
		StubClient:      sim.Micros(0.5),
		StubServer:      sim.Micros(0.5),
	}
}
