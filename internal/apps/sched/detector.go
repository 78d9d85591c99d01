package sched

import "repro/internal/sim"

// detector is a phi-accrual-style failure detector reduced to its
// deterministic core: per agent it keeps an EWMA of heartbeat
// interarrival times and reports suspicion as the ratio of the current
// silence to that mean. Crossing phiThreshold declares the agent
// dead; any later heartbeat readmits it. Ratios of virtual-time integers
// are exact enough here — there is no measurement noise to model, only
// fault-plan-induced silence.
type detector struct {
	interval sim.Duration
	views    []agentView // indexed by agent id; slot 0 unused
}

type agentView struct {
	last    sim.Time // arrival of the newest heartbeat
	mean    float64  // EWMA of interarrival, ns
	lastSeq uint64
	alive   bool
	beats   uint64
}

func newDetector(agents int, interval sim.Duration) *detector {
	d := &detector{interval: interval, views: make([]agentView, agents+1)}
	for i := 1; i <= agents; i++ {
		d.views[i] = agentView{mean: float64(interval), alive: true}
	}
	return d
}

// beat records a heartbeat. Sequence numbers are per-agent monotonic;
// a duplicate or reordered beat (seq <= the newest seen) is reported
// stale and ignored. recovered is true when the beat readmits an agent
// the detector had declared dead; the caller records the transition.
func (d *detector) beat(agent int, seq uint64, now sim.Time) (recovered, stale bool) {
	v := &d.views[agent]
	if seq <= v.lastSeq {
		return false, true
	}
	v.lastSeq = seq
	if v.beats > 0 {
		gap := float64(now.Sub(v.last))
		// EWMA with alpha = 1/4; the floor keeps one fast beat after a
		// long silence from collapsing the mean and tripping the
		// threshold on ordinary jitter.
		v.mean = 0.75*v.mean + 0.25*gap
		if min := float64(d.interval) / 4; v.mean < min {
			v.mean = min
		}
	}
	v.beats++
	v.last = now
	recovered = !v.alive
	v.alive = true
	return recovered, false
}

// phi is the suspicion level of an agent at virtual time now: elapsed
// silence in units of the mean interarrival.
func (d *detector) phi(agent int, now sim.Time) float64 {
	v := &d.views[agent]
	if v.mean <= 0 {
		return 0
	}
	return float64(now.Sub(v.last)) / v.mean
}

// markDead records the death verdict. Only the scheduler's control loop
// calls this, so deaths happen at loop ticks, never concurrently with a
// placement decision.
func (d *detector) markDead(agent int) { d.views[agent].alive = false }

// isAlive reports the detector's current verdict.
func (d *detector) isAlive(agent int) bool { return d.views[agent].alive }
