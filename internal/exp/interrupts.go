package exp

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// InterruptRow is one point of the polling-vs-interrupts experiment.
type InterruptRow struct {
	Delivery   string       // "poll(quantum)" or "interrupts"
	ShortP50   sim.Duration // median latency of the short calls
	ShortWorst sim.Duration
	WorkDone   sim.Duration // completion time of the server's computation
	Interrupts uint64
}

// Interrupts quantifies the delivery-mechanism choice the paper makes in
// section 4 ("because taking interrupts is fairly expensive on the CM-5,
// all of our applications use carefully tuned polling"): a server with a
// long local computation services null RPCs either by polling between
// compute quanta or by taking message interrupts. Interrupts give
// microsecond latency independent of the quantum but tax every message
// with the interrupt overhead; coarse polling is cheap but queues
// messages for up to a quantum.
func Interrupts() []InterruptRow {
	cells := []struct {
		ints    bool
		quantum sim.Duration
	}{
		{false, sim.Micros(2000)},
		{false, sim.Micros(200)},
		{true, sim.Micros(2000)},
	}
	rows := make([]InterruptRow, len(cells))
	for i, cl := range cells {
		rows[i] = runInterrupts(cl.ints, cl.quantum)
	}
	return rows
}

func runInterrupts(useInterrupts bool, quantum sim.Duration) InterruptRow {
	const (
		shortCalls = 24
		totalWork  = 40_000 // us of server computation
	)
	eng := sim.New(12)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{Mode: rpc.ORPC})
	short := rt.Define("short", func(e *oam.Env, caller int, arg []byte) []byte {
		return nil
	})
	workDone := false
	var workAt sim.Time
	var lat []sim.Duration
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			sched := u.Scheduler(0)
			if useInterrupts {
				sched.EnableInterrupts()
				sched.Compute(c, sim.Micros(totalWork))
			} else {
				ep := u.Endpoint(0)
				for done := sim.Duration(0); done < sim.Micros(totalWork); done += quantum {
					sched.Compute(c, quantum)
					apps.Service(c, ep)
				}
			}
			workDone = true
			workAt = c.P.Now()
			return
		}
		for i := 0; i < shortCalls; i++ {
			start := c.P.Now()
			short.Call(c, 0, nil)
			lat = append(lat, c.P.Now().Sub(start))
			c.P.Charge(sim.Micros(1200)) // client think time
		}
	})
	if err != nil {
		panic(fmt.Sprintf("exp: interrupts run deadlocked: %v", err))
	}
	if !workDone {
		panic("exp: server work unfinished")
	}
	p50, worst := percentiles(lat)
	mode := fmt.Sprintf("poll(%s us)", us(quantum))
	if useInterrupts {
		mode = "interrupts"
	}
	return InterruptRow{
		Delivery:   mode,
		ShortP50:   p50,
		ShortWorst: worst,
		WorkDone:   sim.Duration(workAt),
		Interrupts: u.Scheduler(0).Stats().Interrupts,
	}
}

// InterruptsTable formats the delivery-mechanism comparison.
func InterruptsTable() *Table {
	t := &Table{
		Title:   "Message delivery: polling vs interrupts (section 4's design choice)",
		Columns: []string{"Delivery", "Short p50(us)", "Short worst(us)", "Work done at(ms)", "Interrupts"},
		Notes: []string{
			"interrupts bound latency but tax the computation ~50us per message",
			"coarse polling is cheap but queues messages for up to a quantum",
		},
	}
	for _, r := range Interrupts() {
		t.Rows = append(t.Rows, []string{
			r.Delivery, us(r.ShortP50), us(r.ShortWorst),
			fmt.Sprintf("%.2f", float64(r.WorkDone)/1e6), u64(r.Interrupts),
		})
	}
	return t
}
