package threads

import (
	"testing"

	"repro/internal/cm5"
	"repro/internal/sim"
)

// TestIdleWokenToNothingStaysParked: the last thread's exit unparks the idle
// process, which has nothing to run and nothing to poll. The kernel loop
// makes that decision in its place: the idle process is the actor again,
// parked, and was not switched to.
func TestIdleWokenToNothingStaysParked(t *testing.T) {
	eng, s := rig(t)
	var atExit uint64
	s.Bootstrap("main", func(c Ctx) {
		c.P.Charge(sim.Micros(5))
		atExit = eng.Handoffs()
	})
	run(t, eng)
	if got := eng.Handoffs() - atExit; got != 0 {
		t.Errorf("%d handoffs after the thread's last line, want 0: the idle process was switched to", got)
	}
	if s.actor != s.idle || !s.idle.Parked() {
		t.Errorf("actor is the idle process: %v, parked: %v; want both", s.actor == s.idle, s.idle.Parked())
	}
}

// TestPollOnceOnlyPoller: a Poller that is nothing more — a func type, as the
// benchmark's ladder has — cannot be stepped, so a delivery switches to the
// sleeping scheduler and the whole poll runs there, in process context.
func TestPollOnceOnlyPoller(t *testing.T) {
	eng, ss := multiRig(t, 2)
	n0, n1 := ss[0].Node(), ss[1].Node()
	var polledBy *sim.Proc
	var polledAt, handledAt sim.Time
	ss[0].SetPoller(pollerFunc(func(c Ctx) bool {
		polledBy, polledAt = c.P, c.P.Now()
		n0.ReleasePacket(n0.PollPacket(c.P)) // charges: only the running process may
		handledAt = c.P.Now()
		return true
	}))
	if ss[0].stepper != nil {
		t.Fatal("a func poller was taken for a stepPoller")
	}
	ss[1].Bootstrap("sender", func(c Ctx) {
		n1.TryInject(c.P, &cm5.Packet{Src: 1, Dst: 0, Kind: cm5.Small})
	})
	run(t, eng)
	cost := n0.Machine().Cost()
	if arrival := sim.Time(cost.PacketSendOverhead + cost.WireLatency); polledBy != ss[0].idle || polledAt != arrival || handledAt != arrival.Add(cost.PacketRecvOverhead) {
		t.Errorf("polled by the idle process: %v, at %v, handled at %v; want true, %v, %v",
			polledBy == ss[0].idle, polledAt, handledAt, arrival, arrival.Add(cost.PacketRecvOverhead))
	}
	if ss[0].ejected != nil || !ss[0].idle.Parked() {
		t.Error("the scheduler did not go back to sleep clean")
	}
}

// TestKernelGivesAwayABlockedThreadsCPU: a blocked thread sleeps as the
// acting scheduler; a wakeup that brings another thread has the kernel loop
// start that thread in its place — one handoff, to the new thread — and when
// the CPU comes back the blocked thread resumes as the current thread.
func TestKernelGivesAwayABlockedThreadsCPU(t *testing.T) {
	eng, s := rig(t)
	var a Handle
	var atWake, atStart uint64
	resumed := false
	a = s.Bootstrap("a", func(c Ctx) {
		s.sh.After(sim.Micros(10), func() {
			atWake = eng.Handoffs()
			s.Bootstrap("b", func(c Ctx) {
				atStart = eng.Handoffs()
				if s.actor != nil || !a.t.proc.Parked() {
					t.Error("a still acts, or is not parked, while b has the CPU")
				}
				a.Resume(true)
			})
		})
		s.Block(c)
		resumed = s.Running() == a.t && c.P.Now() == sim.Time(sim.Micros(10)+s.cost.ContextSwitch/2)
	})
	run(t, eng)
	if atStart-atWake != 1 {
		t.Errorf("%d handoffs from the wakeup to b's first line, want 1", atStart-atWake)
	}
	if !resumed {
		t.Error("a did not resume as the current thread one restore half after b's exit")
	}
}
