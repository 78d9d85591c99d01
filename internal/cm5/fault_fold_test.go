package cm5

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// referenceTraceHash is the fault-trace hash as a whole-log algorithm:
// collect every fault, stable-sort the copy into (time, src, dst, kind)
// order, fold it into FNV-1a. The online fold must agree with it on any
// recording order a machine can produce.
func referenceTraceHash(evs []faultEvent) uint64 {
	out := append([]faultEvent(nil), evs...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Kind < b.Kind
	})
	h := uint64(fnvOffset64)
	for _, ev := range out {
		for _, v := range [4]uint64{uint64(ev.T), uint64(ev.Kind), uint64(ev.Src), uint64(ev.Dst)} {
			for i := 0; i < 8; i++ {
				h ^= (v >> (8 * i)) & 0xff
				h *= fnvPrime64
			}
		}
	}
	return h
}

// faultMachine is a 4-node machine on a shards-shard engine with an
// empty fault plan installed, ready to record hand-built faults.
func faultMachine(t *testing.T, shards int) *Machine {
	t.Helper()
	eng := sim.NewSharded(1, shards)
	t.Cleanup(eng.Shutdown)
	m := NewMachine(eng, 4, DefaultCostModel())
	m.SetFaultPlan(&FaultPlan{})
	return m
}

// TestFaultFoldMatchesReference records hand-built faults in an order a
// run can produce — instants nondecreasing, each instant's faults in no
// particular order — and holds FaultTraceHash to the whole-log reference
// after every fault, at one shard (folded online) and at two (merged at
// read).
func TestFaultFoldMatchesReference(t *testing.T) {
	at := func(us float64) sim.Time { return sim.Time(sim.Micros(us)) }
	evs := []faultEvent{
		{T: at(10), Kind: FaultDrop, Src: 2, Dst: 1},
		{T: at(10), Kind: FaultDuplicate, Src: 0, Dst: 3},
		{T: at(10), Kind: FaultDrop, Src: 0, Dst: 3},
		{T: at(10), Kind: FaultSlow, Src: 1, Dst: 0},
		{T: at(10), Kind: FaultDrop, Src: 2, Dst: 1},
		// A crash fires before its instant's traffic, so it is recorded
		// first and sorts after a drop from a lower-numbered node.
		{T: at(20), Kind: FaultCrash, Src: 3, Dst: 3},
		{T: at(20), Kind: FaultDrop, Src: 0, Dst: 1},
		{T: at(35), Kind: FaultSlow, Src: 2, Dst: 0},
		{T: at(40), Kind: FaultLateDrop, Src: 1, Dst: 3},
		{T: at(40), Kind: FaultPartitionDrop, Src: 2, Dst: 0},
		{T: at(40), Kind: FaultBlackhole, Src: 1, Dst: 3},
	}
	for _, shards := range []int{1, 2} {
		m := faultMachine(t, shards)
		if got, want := m.FaultTraceHash(), referenceTraceHash(nil); got != want {
			t.Fatalf("shards=%d: empty trace hash %x, want %x", shards, got, want)
		}
		for i, ev := range evs {
			m.fault.record(&m.shards[m.shardIndex(ev.Src)], ev)
			if got, want := m.FaultTraceHash(), referenceTraceHash(evs[:i+1]); got != want {
				t.Fatalf("shards=%d: after %d faults hash %x, want %x", shards, i+1, got, want)
			}
		}
	}
}

// TestFaultFoldRejectsEarlierInstant: the online fold relies on faults
// arriving at nondecreasing instants, so a fault recorded before the
// pending instant panics and names both.
func TestFaultFoldRejectsEarlierInstant(t *testing.T) {
	m := faultMachine(t, 1)
	late, early := sim.Time(sim.Micros(50)), sim.Time(sim.Micros(30))
	m.fault.record(&m.shards[0], faultEvent{T: late, Kind: FaultDrop, Src: 0, Dst: 1})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, late.String()) || !strings.Contains(msg, early.String()) {
			t.Fatalf("panic %q does not name both instants %v and %v", msg, early, late)
		}
	}()
	m.fault.record(&m.shards[0], faultEvent{T: early, Kind: FaultDrop, Src: 1, Dst: 0})
}
