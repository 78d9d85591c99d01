package exp

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// BudgetRow is one point of the handler-budget experiment.
type BudgetRow struct {
	Budget     sim.Duration // 0 = unlimited (the paper's prototype)
	ShortP50   sim.Duration // median round trip of the short calls
	ShortWorst sim.Duration
	LongTotal  sim.Duration // completion time of all long calls
	TooLong    uint64       // aborts due to the budget
}

// Budget demonstrates the "runs too long" check the paper describes but
// leaves unimplemented (section 3.3): a server receives a mix of long
// (2 ms) and short (null) calls. Without a budget, long calls monopolize
// the handler and short calls queue behind them; with a budget, long
// executions abort to threads and short calls keep their microsecond
// latency.
func Budget() []BudgetRow {
	budgets := []sim.Duration{0, sim.Micros(100), sim.Micros(25)}
	rows := make([]BudgetRow, len(budgets))
	for i, b := range budgets {
		rows[i] = runBudget(b)
	}
	return rows
}

func runBudget(budget sim.Duration) BudgetRow {
	const (
		longCalls  = 10
		shortCalls = 40
		longWork   = 2000 // us of compute per long call
	)
	eng := sim.New(4)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 3, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{
		Mode: rpc.ORPC,
		OAM:  oam.Options{Strategy: oam.Rerun, HandlerBudget: budget},
	})
	long := rt.Define("long", func(e *oam.Env, caller int, arg []byte) []byte {
		for i := 0; i < 20; i++ {
			e.Compute(sim.Micros(longWork / 20))
			// As a thread this shares the processor between chunks; in a
			// handler it cannot — handlers are not schedulable.
			e.Service()
		}
		return nil
	})
	short := rt.Define("short", func(e *oam.Env, caller int, arg []byte) []byte {
		return nil
	})
	var shortTimes []sim.Duration
	var longDone sim.Time
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		switch node {
		case 1: // the bulk client
			for i := 0; i < longCalls; i++ {
				long.Call(c, 0, nil)
			}
			longDone = c.P.Now()
		case 2: // the latency-sensitive client
			for i := 0; i < shortCalls; i++ {
				start := c.P.Now()
				short.Call(c, 0, nil)
				shortTimes = append(shortTimes, c.P.Now().Sub(start))
				c.P.Charge(sim.Micros(400)) // think time
			}
		}
	})
	if err != nil {
		panic(fmt.Sprintf("exp: budget run deadlocked: %v", err))
	}
	p50, worst := percentiles(shortTimes)
	st := rt.Dispatcher().Stats()
	return BudgetRow{
		Budget:     budget,
		ShortP50:   p50,
		ShortWorst: worst,
		LongTotal:  sim.Duration(longDone),
		TooLong:    st.ByReason[oam.TooLong],
	}
}

func percentiles(ds []sim.Duration) (p50, worst sim.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sorted := append([]sim.Duration(nil), ds...)
	for i := 1; i < len(sorted); i++ { // insertion sort; n is small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2], sorted[len(sorted)-1]
}

// BudgetTable formats the handler-budget experiment.
func BudgetTable() *Table {
	t := &Table{
		Title: "Handler time budget (the paper's 'runs too long' check, section 3.3)",
		Columns: []string{"Budget(us)", "Short p50(us)", "Short worst(us)",
			"Long total(ms)", "TooLong aborts"},
		Notes: []string{
			"0 = unlimited, the paper's prototype: long calls monopolize the handler",
		},
	}
	for _, r := range Budget() {
		bud := "unlimited"
		if r.Budget > 0 {
			bud = us(r.Budget)
		}
		t.Rows = append(t.Rows, []string{
			bud, us(r.ShortP50), us(r.ShortWorst),
			fmt.Sprintf("%.2f", float64(r.LongTotal)/1e6), u64(r.TooLong),
		})
	}
	return t
}

// BufferRow is one point of the buffer-depth experiment.
type BufferRow struct {
	QueueCap   int
	PollEvery  sim.Duration
	Elapsed    sim.Duration
	DrainSpins uint64
}

// Buffering explores the interaction the paper points out between
// network-interface buffering and polling frequency: the CM-5's deep
// buffers let applications poll infrequently, while on machines with
// shallow buffers (Alewife) infrequent polling blocks senders almost
// immediately. A producer streams small messages to a consumer that
// polls only between compute quanta.
func Buffering() []BufferRow {
	caps := []int{2, 8, 128}
	quanta := []sim.Duration{sim.Micros(20), sim.Micros(200)}
	rows := make([]BufferRow, len(caps)*len(quanta))
	for i := range rows {
		rows[i] = runBuffering(caps[i/len(quanta)], quanta[i%len(quanta)])
	}
	return rows
}

func runBuffering(queueCap int, quantum sim.Duration) BufferRow {
	const messages = 300
	eng := sim.New(6)
	defer eng.Shutdown()
	cost := cm5.DefaultCostModel()
	cost.NICQueueCap = queueCap
	u := am.NewUniverse(eng, 2, cost)
	received := 0
	h := u.Register("sink", func(c threads.Ctx, pkt *cm5.Packet) { received++ })
	elapsed, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < messages; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
			}
			return
		}
		// Consumer: compute quanta with polling in between — "carefully
		// tuned polling" whose tuning the buffer depth forgives or not.
		for received < messages {
			c.P.Charge(quantum)
			ep.PollAll(c)
		}
	})
	if err != nil {
		panic(fmt.Sprintf("exp: buffering run deadlocked: %v", err))
	}
	return BufferRow{
		QueueCap:   queueCap,
		PollEvery:  quantum,
		Elapsed:    sim.Duration(elapsed),
		DrainSpins: u.Stats().DrainSpins,
	}
}

// BufferingTable formats the buffer-depth experiment.
func BufferingTable() *Table {
	t := &Table{
		Title:   "NIC buffering vs polling frequency (section 2's CM-5/Alewife contrast)",
		Columns: []string{"Queue cap", "Poll every(us)", "Elapsed(ms)", "Sender drain spins"},
		Notes: []string{
			"shallow buffers + infrequent polling stall the sender (drain spins explode)",
		},
	}
	for _, r := range Buffering() {
		t.Rows = append(t.Rows, []string{
			itoa(r.QueueCap), us(r.PollEvery),
			fmt.Sprintf("%.2f", float64(r.Elapsed)/1e6), u64(r.DrainSpins),
		})
	}
	return t
}
