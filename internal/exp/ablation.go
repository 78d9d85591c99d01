package exp

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/tsp"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// AblationRow is one promotion-strategy measurement.
type AblationRow struct {
	Strategy  string
	Elapsed   sim.Duration
	OAMs      uint64
	Succ      uint64
	Promoted  uint64
	Adopted   uint64 // lazily promoted in place (continuation only)
	Nacked    uint64
	Retries   uint64 // client-side re-sends after a nack
	CallsMade uint64
}

// Ablation compares the three abort strategies of section 2 — rerun,
// continuation (lazy promotion), and negative acknowledgment — on a
// contended workload: several clients increment a counter whose lock the
// server's own thread holds about half the time. The paper's prototype
// implements rerun only; this experiment is the design-space exploration
// the mechanism enables.
func Ablation() []AblationRow {
	strats := []oam.Strategy{oam.Rerun, oam.Continuation, oam.Nack}
	rows := make([]AblationRow, len(strats))
	for i, strat := range strats {
		rows[i] = runAblation(strat)
	}
	return rows
}

func runAblation(strat oam.Strategy) AblationRow {
	const (
		clients = 3
		calls   = 100
	)
	eng := sim.New(9)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, clients+1, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{Mode: rpc.ORPC, OAM: oam.Options{Strategy: strat}})
	mu := threads.NewMutex(u.Scheduler(0))
	count := 0
	inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte {
		e.Lock(mu)
		e.Compute(sim.Micros(3))
		count++
		e.Unlock(mu)
		return nil
	})
	doneClients := 0
	done := rt.DefineAsync("done", func(e *oam.Env, caller int, arg []byte) []byte {
		doneClients++
		return nil
	})
	elapsed, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			// Server thread: alternately holds the lock while polling
			// (forcing aborts) and releases it.
			ep := u.Endpoint(0)
			for doneClients < clients {
				mu.Lock(c)
				for i := 0; i < 10; i++ {
					ep.Poll(c)
					c.P.Charge(sim.Micros(2))
				}
				mu.Unlock(c)
				c.S.Yield(c)
				ep.Poll(c)
				c.S.Yield(c)
			}
			return
		}
		for i := 0; i < calls; i++ {
			inc.Call(c, 0, nil)
		}
		done.CallAsync(c, 0, nil)
	})
	if err != nil {
		panic(fmt.Sprintf("exp: ablation/%v deadlocked: %v", strat, err))
	}
	if count != clients*calls {
		panic(fmt.Sprintf("exp: ablation/%v lost increments: %d", strat, count))
	}
	st := rt.Dispatcher().Stats()
	adopted := uint64(0)
	for i := 0; i <= clients; i++ {
		adopted += u.Scheduler(i).Stats().Adopted
	}
	return AblationRow{
		Strategy: strat.String(),
		Elapsed:  sim.Duration(elapsed),
		OAMs:     st.Total, Succ: st.Succeeded,
		Promoted: st.Promoted, Adopted: adopted, Nacked: st.Nacked,
		Retries:   inc.Stats().Retries,
		CallsMade: inc.Stats().Calls,
	}
}

// AblationTable formats the strategy comparison.
func AblationTable() *Table {
	t := &Table{
		Title: "Promotion-strategy ablation (section 2): contended counter, 3 clients x 100 calls",
		Columns: []string{"Strategy", "Elapsed(ms)", "OAMs", "Successes",
			"Promoted", "Adopted", "Nacked", "Retries", "Client calls"},
		Notes: []string{
			"rerun re-executes the body; continuation adopts it in place; nack retries from the sender",
		},
	}
	for _, r := range Ablation() {
		t.Rows = append(t.Rows, []string{
			r.Strategy, fmt.Sprintf("%.2f", float64(r.Elapsed)/1e6),
			u64(r.OAMs), u64(r.Succ), u64(r.Promoted), u64(r.Adopted),
			u64(r.Nacked), u64(r.Retries), u64(r.CallsMade),
		})
	}
	return t
}

// SchedPolicyRow compares front- vs back-of-queue scheduling of incoming
// RPC threads (section 4.1: front always won), plus fixed- vs
// adaptive-budget abort thresholds on the optimistic dispatcher. The
// OAM columns only apply to the budget rows; the queue-policy rows run
// TRPC, where nothing dispatches optimistically.
type SchedPolicyRow struct {
	Policy  string
	Elapsed sim.Duration
	OAM     bool // Promoted/BudgetRaised are meaningful
	// Promoted counts optimistic dispatches promoted to threads;
	// BudgetRaised counts the adaptive controller's budget doublings
	// (always 0 for the fixed row).
	Promoted     uint64
	BudgetRaised uint64
}

// SchedPolicy measures TRPC latency under both ready-queue policies on a
// request-chain workload where prompt execution of incoming calls
// matters: each client's next call depends on its previous reply while a
// competing computation thread keeps the server busy.
func SchedPolicy() []SchedPolicyRow {
	run := func(back bool) sim.Duration {
		eng := sim.New(3)
		defer eng.Shutdown()
		u := am.NewUniverse(eng, 3, cm5.DefaultCostModel())
		rt := rpc.New(u, rpc.Options{Mode: rpc.TRPC, BackOfQueue: back})
		count := 0
		inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte {
			e.Compute(sim.Micros(2))
			count++
			return nil
		})
		stop := false
		stopP := rt.DefineAsync("stop", func(e *oam.Env, caller int, arg []byte) []byte {
			stop = true
			return nil
		})
		elapsed, err := u.SPMD(func(c threads.Ctx, node int) {
			switch node {
			case 0:
				// Server: a computation thread that yields between work
				// quanta, plus background threads competing for the CPU.
				for i := 0; i < 3; i++ {
					c.S.Create(c, "bg", false, func(cc threads.Ctx) {
						for !stop {
							cc.P.Charge(sim.Micros(20))
							cc.S.Yield(cc)
						}
					})
				}
				ep := u.Endpoint(0)
				for !stop {
					ep.Poll(c)
					c.P.Charge(sim.Micros(20))
					c.S.Yield(c)
				}
			case 1:
				for i := 0; i < 200; i++ {
					inc.Call(c, 0, nil)
				}
				stopP.CallAsync(c, 0, nil)
			}
		})
		if err != nil {
			panic(fmt.Sprintf("exp: schedpolicy deadlocked: %v", err))
		}
		return sim.Duration(elapsed)
	}
	rows := []SchedPolicyRow{
		{Policy: "front-of-queue"},
		{Policy: "back-of-queue"},
		{Policy: "fixed-budget", OAM: true},
		{Policy: "adaptive-budget", OAM: true},
	}
	for i := range rows {
		if i < 2 {
			rows[i].Elapsed = run(i == 1)
		} else {
			rows[i].Elapsed, rows[i].Promoted, rows[i].BudgetRaised = runBudgetPolicy(i == 3)
		}
	}
	return rows
}

// runBudgetPolicy measures the optimistic dispatcher on a long-handler
// request chain under a deliberately miscalibrated fixed budget (4 us
// budget, 12 us handlers — every dispatch aborts TooLong and pays a
// promotion) versus the adaptive per-node controller, which sees
// budget aborts with a shallow backlog and doubles the budget until the
// handlers complete inline.
func runBudgetPolicy(adaptive bool) (sim.Duration, uint64, uint64) {
	eng := sim.New(5)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 3, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{Mode: rpc.ORPC, OAM: oam.Options{
		HandlerBudget: sim.Micros(4),
		Adaptive:      adaptive,
	}})
	count := 0
	work := rt.Define("work", func(e *oam.Env, caller int, arg []byte) []byte {
		e.Compute(sim.Micros(12))
		count++
		return nil
	})
	stop := false
	stopP := rt.DefineAsync("stop", func(e *oam.Env, caller int, arg []byte) []byte {
		stop = true
		return nil
	})
	elapsed, err := u.SPMD(func(c threads.Ctx, node int) {
		switch node {
		case 0:
			ep := u.Endpoint(0)
			for !stop {
				ep.Poll(c)
				c.P.Charge(sim.Micros(2))
				c.S.Yield(c)
			}
		case 1:
			for i := 0; i < 200; i++ {
				work.Call(c, 0, nil)
			}
			stopP.CallAsync(c, 0, nil)
		}
	})
	if err != nil {
		panic(fmt.Sprintf("exp: budget policy deadlocked: %v", err))
	}
	if count != 200 {
		panic(fmt.Sprintf("exp: budget policy lost calls: %d", count))
	}
	st := rt.Dispatcher().Stats()
	return sim.Duration(elapsed), st.Promoted, st.BudgetRaised
}

// SchedPolicyTable formats the scheduling-policy comparison.
func SchedPolicyTable() *Table {
	t := &Table{
		Title:   "Scheduling policy: incoming-thread queue position (section 4.1) and abort-budget control",
		Columns: []string{"Policy", "Elapsed(ms)", "Promoted", "BudgetRaised"},
		Notes: []string{
			"paper: back-of-queue always performed worse",
			"budget rows: same ORPC long-handler chain under a miscalibrated 4 us budget;",
			"the adaptive controller doubles it until the 12 us handlers complete inline",
		},
	}
	for _, r := range SchedPolicy() {
		promoted, raised := "-", "-"
		if r.OAM {
			promoted, raised = u64(r.Promoted), u64(r.BudgetRaised)
		}
		t.Rows = append(t.Rows, []string{
			r.Policy, fmt.Sprintf("%.2f", float64(r.Elapsed)/1e6), promoted, raised,
		})
	}
	return t
}

// AppAblationRow compares abort strategies on a real application.
type AppAblationRow struct {
	App      string
	Strategy string
	Elapsed  sim.Duration
	SuccPct  float64
}

// AppAblation runs the TSP application (the one whose GetJob procedure
// actually blocks under load) under each abort strategy at a slave count
// where contention matters.
func AppAblation(s Scale) ([]AppAblationRow, error) {
	cfg := s.tsp()
	slaves := 64
	if s.Quick {
		slaves = 12
	}
	strats := []oam.Strategy{oam.Rerun, oam.Continuation, oam.Nack}
	rows := make([]AppAblationRow, len(strats))
	err := s.forEach(len(strats), func(i int) error {
		c := cfg
		c.Strategy = strats[i]
		res, err := tsp.Run(apps.ORPC, slaves, c)
		if err != nil {
			return fmt.Errorf("app ablation %v: %w", strats[i], err)
		}
		rows[i] = AppAblationRow{
			App: "tsp", Strategy: strats[i].String(),
			Elapsed: res.Elapsed, SuccPct: res.SuccessPercent(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// AppAblationTable formats the application-level strategy comparison.
func AppAblationTable(s Scale) (*Table, error) {
	rows, err := AppAblation(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Abort-strategy ablation on TSP (contended GetJob)",
		Columns: []string{"App", "Strategy", "Elapsed(s)", "OAM success %"},
		Notes: []string{
			"the paper's prototype uses rerun; continuation and nack are the section 2 alternatives",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App, r.Strategy, seconds(r.Elapsed), f1(r.SuccPct),
		})
	}
	return t, nil
}

// AbortCostTable formats the abort-cost measurement (section 4.1.1).
func AbortCostTable() *Table {
	live, busy := AbortCost()
	return &Table{
		Title:   "Abort cost (section 4.1.1)",
		Columns: []string{"Case", "Cost (us)"},
		Rows: [][]string{
			{"live-stack (idle server)", us(live)},
			{"with context switch (busy server)", us(busy)},
		},
		Notes: []string{"paper: 7 us or 60 us depending on the live-stack optimization"},
	}
}
