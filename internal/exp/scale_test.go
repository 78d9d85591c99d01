package exp

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cm5"
	"repro/internal/sim"
)

// The scale sweep answers the 100k-node question directly: does the
// kernel's per-event cost stay flat as the machine grows, and does a node
// cost O(1) memory whether the machine has 128 of them or 65536? Both are
// load-bearing claims of the scale work (calendar-queue scheduling and
// lazy node materialization); TestKernelScaleBudget asserts both against
// the budgets below and BenchmarkKernelScale reports the raw numbers.
const (
	// scaleNsPerEventRatioMax caps ns/event(N=65536) / ns/event(N=128)
	// on the constant-event-budget storm. The algorithmic cost is flat —
	// the queue's own health numbers below (scans/pop, allocs/event) carry
	// that claim — but wall time per event is not purely algorithmic: at
	// N=128 the whole simulation (events, buckets, client state) is
	// L1/L2-resident, while at N=65536 each event fire performs ~3
	// dependent last-level-cache accesses (the event struct cycling
	// through a multi-MB pending set, its calendar bucket, and the
	// client's own state — the last being the workload's, not the
	// kernel's). No pointer-based scheduler gets below that, so the cap
	// is the measured memory-hierarchy floor (best-of-3 measures 2.4-2.9x
	// on an idle reference host, up to ~3.8x when sharing the host with a
	// concurrent test run) plus noise headroom, not a claim of
	// cache-immunity. What the cap is for is catching algorithmic
	// regressions: a heap-based scheduler blows well past it — O(log n)
	// comparisons each touching a scattered node puts the same sweep at
	// 8x+ — and so would any O(n) table rebuilt per event.
	scaleNsPerEventRatioMax = 4.0
	// scaleScansPerPopMax and scaleAllocsPerEventMax assert the flatness
	// that *is* algorithmic, at every point of the sweep: forward scans
	// per pop near 1 (bucket width matched to event spacing at any N) and
	// a steady-state tick allocating nothing.
	scaleScansPerPopMax    = 4.0
	scaleAllocsPerEventMax = 0.05
	// scaleBytesPerNodeCap bounds the retained heap per *touched* node
	// after the storm: the Node struct, its NIC (ring unallocated unless
	// the node received), shard bookkeeping, and the storm's own per-node
	// timer state. Asserted at the largest N of the sweep, where the
	// engine's fixed overhead (pools, the message ring, the queue's bucket
	// array) is amortized; at N=128 that fixed cost dominates the
	// division and the number means nothing. Measured ~0.4 KiB/node; the
	// cap leaves headroom for allocator size-class rounding across Go
	// versions.
	scaleBytesPerNodeCap = 1024
	// scaleIdleBytesPerNodeCap bounds the retained heap per node of a
	// machine that was built but never touched: with lazy materialization
	// that is one nil pointer slot per node plus O(shards) machinery, so
	// the cap is a few pointer widths, not a Node struct.
	scaleIdleBytesPerNodeCap = 64
	// scaleWallFloor marks a point too fast to time reliably: below this
	// the test skips the ratio assertion rather than fail on timer noise.
	scaleWallFloor = 10 * time.Millisecond
	// scaleTestBudget keeps the sweep in test-suite time but still gives
	// the largest N a timed window big enough (~100 ms) that a GC pause or
	// a scheduling hiccup cannot move the ratio past its cap on a busy
	// host; the benchmark spends four times as much per point.
	scaleTestBudget  = 1 << 19
	scaleBenchBudget = 1 << 21
)

// scaleNodeCounts is the node sweep.
var scaleNodeCounts = []int{128, 4096, 65536}

// scalePoint is one storm at one node count.
type scalePoint struct {
	nodes  int
	events uint64
	wall   time.Duration
	// allocs counts the timed phase's heap allocations; heapBytes is the
	// GC-settled retained heap growth of the whole pass (machine, queues,
	// per-node storm state) — every node is touched by the storm.
	allocs      uint64
	heapBytes   uint64
	scansPerPop float64
}

// nsPerEvent is host wall time per simulated event; the sweep holds the
// total event budget constant, so it is directly comparable across node
// counts.
func (p scalePoint) nsPerEvent() float64 {
	return float64(p.wall.Nanoseconds()) / float64(p.events)
}
func (p scalePoint) allocsPerEvent() float64 { return float64(p.allocs) / float64(p.events) }
func (p scalePoint) bytesPerNode() float64   { return float64(p.heapBytes) / float64(p.nodes) }

// scaleStep is the nominal timer re-arm period of the storm; each client
// adds its own sub-step offset.
const scaleStep = 50 * time.Microsecond

// scaleNoop is the decoy timer body; decoys are cancelled at birth, so it
// never runs.
func scaleNoop() {}

// scaleState is the shared context of one storm's clients.
type scaleState struct {
	eng    *sim.Engine
	m      *cm5.Machine
	rounds int32
}

// scaleClient is one node's timer chain. Clients live in a flat array —
// per-node state is a contiguous struct, not a scattered closure
// environment — and re-arm via AtAction/AfterAction so a tick allocates
// nothing.
type scaleClient struct {
	st     *scaleState
	id     int32
	left   int32
	offset int32 // per-node re-arm offset, ns
}

// Run is the timer callback: materialize on first touch, occasionally
// schedule-and-cancel a decoy (exercising lazy deletion in the calendar
// queue), and re-arm.
func (c *scaleClient) Run() {
	st := c.st
	if c.left == st.rounds {
		st.m.Node(int(c.id)) // first touch: materialize under load, like real clients
	}
	c.left--
	if c.left <= 0 {
		return
	}
	if c.left%4 == 0 {
		// Decoy: schedule one step out, cancel immediately — exercising
		// Timer arming and the cancel-unlink path at storm rate.
		t := st.eng.AfterTimer(2*scaleStep, scaleNoop)
		t.Cancel()
	}
	st.eng.AfterAction(scaleStep+sim.Duration(c.offset), c)
}

// scaleStorm is one point: nodes timer chains re-arming (with periodic
// schedule-and-cancel decoys, exercising the cancel-unlink path in the
// calendar queue) until the event budget is spent, plus a small fixed-size
// messaging ring so the pass also moves real packets through NICs. Every
// node is touched, so bytesPerNode is the full materialized cost.
func scaleStorm(tb testing.TB, nodes, budget int) scalePoint {
	tb.Helper()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	eng := sim.New(1)
	defer eng.Shutdown()
	m := cm5.NewMachine(eng, nodes, cm5.DefaultCostModel())

	// One warmup round plus budget/nodes measured rounds: the warm phase
	// (run untimed below) materializes every node, fills the event pool to
	// its steady-state population, and re-arms every chain, so the timed
	// phase measures steady-state scheduling, not first-touch setup. The
	// setup cost is still fully visible — in bytesPerNode.
	rounds := budget/nodes + 1
	if rounds < 2 {
		rounds = 2
	}
	st := &scaleState{eng: eng, m: m, rounds: int32(rounds)}
	clients := make([]scaleClient, nodes)
	for i := 0; i < nodes; i++ {
		c := &clients[i]
		c.st = st
		c.id = int32(i)
		// Per-node re-arm offset decorrelates the chains so events spread
		// across calendar buckets instead of marching in one phalanx.
		c.offset = int32((i * 7919) % 50_000)
		c.left = int32(rounds)
		// First ticks spread over 4 µs — all inside the warm phase, all
		// before the earliest possible re-arm at scaleStep.
		eng.AtAction(sim.Time(1+i%4096), c)
	}

	// Fixed-size messaging component: an 8-node ring pushing real packets
	// through injection, NIC reservation, and delivery. Constant across
	// the sweep, so it never skews the per-N comparison.
	msgN := 8
	if msgN > nodes {
		msgN = nodes
	}
	const msgPackets = 256
	for i := 0; i < msgN; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("scale-msg/%d", i), func(p *sim.Proc) {
			nd := m.Node(i)
			dst := (i + 1) % msgN
			got := 0
			poll := func() {
				p.Charge(sim.Micros(2))
				if in := nd.PollPacket(p); in != nil {
					got++
					nd.ReleasePacket(in)
				}
			}
			for k := 0; k < msgPackets; k++ {
				pkt := nd.AllocPacket()
				pkt.Src, pkt.Dst, pkt.Kind = i, dst, cm5.Small
				for !nd.TryInject(p, pkt) {
					poll()
				}
			}
			for got < msgPackets {
				poll()
			}
		})
	}

	// Warm phase: every chain's first tick (and nothing else — re-arms
	// land at step ≈ 50 µs). Untimed; alloc-counted via mw below so the
	// timed window's allocsPerEvent is steady-state.
	if err := eng.RunUntil(sim.Time(sim.Micros(10))); err != nil {
		tb.Fatalf("scale storm warmup (nodes=%d): %v", nodes, err)
	}
	warmEvents := eng.Events()
	var mw runtime.MemStats
	runtime.ReadMemStats(&mw)

	start := time.Now()
	if err := eng.Run(); err != nil {
		tb.Fatalf("scale storm (nodes=%d): %v", nodes, err)
	}
	wall := time.Since(start)

	runtime.GC()
	runtime.ReadMemStats(&m1)
	qs := eng.QueueStats()
	runtime.KeepAlive(m)

	p := scalePoint{
		nodes:  nodes,
		events: eng.Events() - warmEvents,
		wall:   wall,
		allocs: m1.Mallocs - mw.Mallocs,
	}
	if qs.Pops > 0 {
		p.scansPerPop = float64(qs.ScanSteps) / float64(qs.Pops)
	}
	if m1.HeapAlloc > m0.HeapAlloc {
		p.heapBytes = m1.HeapAlloc - m0.HeapAlloc
	}
	return p
}

// idleBytesPerNode measures the retained heap per node of a machine that
// is built and then never touched: with lazy materialization this is the
// nil node-pointer table plus O(shards) machinery.
func idleBytesPerNode(nodes int) float64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng := sim.New(1)
	defer eng.Shutdown()
	m := cm5.NewMachine(eng, nodes, cm5.DefaultCostModel())
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(m)
	if m1.HeapAlloc <= m0.HeapAlloc {
		return 0
	}
	return float64(m1.HeapAlloc-m0.HeapAlloc) / float64(nodes)
}

// TestKernelScaleBudget runs the scale sweep — a timer-heavy many-client
// storm over all N nodes for N in scaleNodeCounts, holding the total event
// budget constant so ns/event is comparable across the sweep — and asserts
// the scale budgets: per-event wall cost within the documented
// memory-hierarchy cap from N=128 to N=65536, algorithmic flatness
// (scans/pop, allocs/event) at every point, and per-node memory under the
// caps both touched and idle.
func TestKernelScaleBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep builds 65536-node machines")
	}
	var points []scalePoint
	timed := true
	for _, n := range scaleNodeCounts {
		// Best of three: ns/event on a shared host is right-skewed by
		// scheduling and frequency noise, and the minimum is the run
		// closest to the kernel's actual cost. Memory numbers are
		// noise-free, so any run's will do.
		p := scaleStorm(t, n, scaleTestBudget)
		for r := 1; r < 3; r++ {
			if q := scaleStorm(t, n, scaleTestBudget); q.nsPerEvent() < p.nsPerEvent() {
				p = q
			}
		}
		if p.wall < scaleWallFloor {
			timed = false
			t.Logf("N=%d ran %v < %v floor: ns/event ratio is timer noise, not kernel cost", n, p.wall, scaleWallFloor)
		}
		if p.scansPerPop > scaleScansPerPopMax {
			t.Errorf("N=%d: %.2f scans/pop > %.1f — bucket width unmatched to event spacing",
				n, p.scansPerPop, scaleScansPerPopMax)
		}
		if p.allocsPerEvent() > scaleAllocsPerEventMax {
			t.Errorf("N=%d: %.3f allocs/event > %.2f — steady-state tick is no longer allocation-free",
				n, p.allocsPerEvent(), scaleAllocsPerEventMax)
		}
		points = append(points, p)
	}
	first, last := points[0], points[len(points)-1]
	if last.bytesPerNode() > scaleBytesPerNodeCap {
		t.Errorf("N=%d: %.0f bytes/node > %d cap", last.nodes, last.bytesPerNode(), scaleBytesPerNodeCap)
	}
	if idle := idleBytesPerNode(last.nodes); idle > scaleIdleBytesPerNodeCap {
		t.Errorf("idle machine: %.1f bytes/node > %d cap — something materializes untouched nodes",
			idle, scaleIdleBytesPerNodeCap)
	}
	if !timed {
		t.Skip("ns/event ratio not asserted: a point ran under the wall-clock floor")
	}
	if ratio := last.nsPerEvent() / first.nsPerEvent(); ratio > scaleNsPerEventRatioMax {
		// Under sustained contention all three runs of a point are slow and
		// the memory-bound end suffers more: fail only if a second reading
		// of both ends says the same.
		again := scaleStorm(t, last.nodes, scaleTestBudget).nsPerEvent() / scaleStorm(t, first.nodes, scaleTestBudget).nsPerEvent()
		t.Logf("ns/event ratio from N=%d to N=%d read %.2f, then %.2f (cap %.1f)",
			first.nodes, last.nodes, ratio, again, scaleNsPerEventRatioMax)
		if again > scaleNsPerEventRatioMax {
			t.Errorf("ns/event ratio %.2f and again %.2f > %.1f from N=%d to N=%d",
				ratio, again, scaleNsPerEventRatioMax, first.nodes, last.nodes)
		}
	}
}

// BenchmarkKernelScale reports the same sweep as numbers: ns/event (flat
// up to the memory-hierarchy ratio documented above), retained bytes per
// touched node, steady-state allocations per event and calendar-queue
// scans per pop, one sub-benchmark per node count.
func BenchmarkKernelScale(b *testing.B) {
	for _, n := range scaleNodeCounts {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var p scalePoint
			var wall time.Duration
			var events uint64
			for i := 0; i < b.N; i++ {
				p = scaleStorm(b, n, scaleBenchBudget)
				wall += p.wall
				events += p.events
			}
			// Only the steady-state phase is timed; set-up and the two
			// forced collections around it are not the kernel's cost.
			b.ReportMetric(float64(wall.Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(p.bytesPerNode(), "B/node")
			b.ReportMetric(p.allocsPerEvent(), "allocs/event")
			b.ReportMetric(p.scansPerPop, "scans/pop")
		})
	}
}
