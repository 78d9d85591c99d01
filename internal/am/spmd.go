package am

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/threads"
)

// SPMD bootstraps body as the main thread of every node, runs the
// simulation to quiescence, and returns the virtual time at which the
// last main thread finished — the parallel running time of the program.
//
// A main that never finishes (application deadlock) is reported as an
// error rather than hanging: the simulation quiesces and the check fails.
// Callers should still Shutdown the engine when done with the universe.
func (u *Universe) SPMD(body func(c threads.Ctx, node int)) (sim.Time, error) {
	n := u.N()
	done := make([]sim.Time, n)
	// One flag per node, counted after the run: mains on different engine
	// shards finish concurrently, so a shared counter would race.
	fin := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		u.Scheduler(i).Bootstrap("main/"+strconv.Itoa(i), func(c threads.Ctx) {
			body(c, i)
			done[i] = c.P.Now()
			fin[i] = true
		})
	}
	if err := u.m.Engine().Run(); err != nil {
		return 0, err
	}
	finished := 0
	for i := 0; i < n; i++ {
		if fin[i] {
			finished++
		}
	}
	if finished != n {
		var report []string
		for i := 0; i < n; i++ {
			if !fin[i] {
				state := fmt.Sprintf("blocked: %v", u.Scheduler(i).Blocked())
				if ep := u.Endpoint(i); ep.polling {
					state += fmt.Sprintf(", polling an empty NIC since %v", ep.pollingSince)
				}
				report = append(report,
					fmt.Sprintf("node %d (%s, %d queued packets)", i, state, u.m.Node(i).Pending()))
			}
		}
		return 0, fmt.Errorf("am: SPMD quiesced with %d of %d mains unfinished: deadlock at %s",
			n-finished, n, strings.Join(report, "; "))
	}
	var max sim.Time
	for _, d := range done {
		if d > max {
			max = d
		}
	}
	return max, nil
}
