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

// serveBusy is the busy server of Table 1: a thread in a tight
// poll-and-yield loop until *stop is set.
func serveBusy(c threads.Ctx, ep *am.Endpoint, stop *bool) {
	for !*stop {
		ep.Poll(c)
		c.S.Yield(c)
	}
}

// nullRPC measures the average round-trip time of a null RPC (an
// increment of a server variable) over trips calls, with the server
// either idle (its only thread suspended on a condition) or busy (a
// thread in a tight poll-and-yield loop) — the two rows of Table 1.
func nullRPC(mode rpc.Mode, busyServer bool, payload int, trips int) sim.Duration {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{Mode: mode})
	counter := 0
	inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte {
		counter++
		return nil
	})
	experimentDone := false
	done := rt.DefineAsync("done", func(e *oam.Env, caller int, arg []byte) []byte {
		experimentDone = true
		return nil
	})
	var total sim.Duration
	arg := make([]byte, payload)
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			// Busy server: a thread spins in a tight poll-and-yield loop
			// for the whole experiment. Idle server: the main returns at
			// once — equivalent to the paper's suspended,
			// condition-waiting thread — and the scheduler services the
			// calls.
			if busyServer {
				serveBusy(c, u.Endpoint(1), &experimentDone)
			}
			return
		}
		start := c.P.Now()
		for i := 0; i < trips; i++ {
			inc.Call(c, 1, arg)
		}
		total = c.P.Now().Sub(start)
		done.CallAsync(c, 1, nil)
	})
	if err != nil {
		panic(fmt.Sprintf("exp: null RPC deadlocked: %v", err))
	}
	if counter != trips {
		panic("exp: null RPC lost calls")
	}
	return total / sim.Duration(trips)
}

// nullAM measures the hand-coded Active Messages baseline: a request of
// size bytes answered by an empty reply. Up to the 16-byte Active Message
// payload limit the request rides the small path, whose cost does not
// depend on the payload; above it, the bulk (scopy) path.
func nullAM(busyServer bool, size, trips int) sim.Duration {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	var data []byte
	if size > 16 {
		data = make([]byte, size)
	}
	var replyH am.HandlerID
	counter := 0
	gotReply := false
	expDone := false
	reqH := u.Register("req", func(c threads.Ctx, pkt *cm5.Packet) {
		counter++
		u.Endpoint(1).Send(c, pkt.Src, replyH, [4]uint64{}, nil)
	})
	replyH = u.Register("reply", func(c threads.Ctx, pkt *cm5.Packet) { gotReply = true })
	doneH := u.Register("done", func(c threads.Ctx, pkt *cm5.Packet) { expDone = true })
	var total sim.Duration
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			if busyServer {
				serveBusy(c, u.Endpoint(1), &expDone)
			}
			return
		}
		ep := u.Endpoint(0)
		start := c.P.Now()
		for i := 0; i < trips; i++ {
			gotReply = false
			if data != nil {
				ep.SendBulk(c, 1, reqH, [4]uint64{}, data)
			} else {
				ep.Send(c, 1, reqH, [4]uint64{}, nil)
			}
			ep.PollUntil(c, func() bool { return gotReply })
		}
		total = c.P.Now().Sub(start)
		ep.Send(c, 1, doneH, [4]uint64{}, nil)
	})
	if err != nil {
		panic(fmt.Sprintf("exp: null AM deadlocked: %v", err))
	}
	if counter != trips {
		panic("exp: null AM lost calls")
	}
	return total / sim.Duration(trips)
}

// Table1Row is one measurement of Table 1.
type Table1Row struct {
	System   string
	NoThread sim.Duration
	Busy     sim.Duration
}

// Table1 reproduces Table 1: round-trip time of a null RPC under TRPC,
// ORPC, and hand-coded AM, with and without a running server thread.
func Table1() []Table1Row {
	const trips = 64
	return []Table1Row{
		{System: "TRPC", NoThread: nullRPC(rpc.TRPC, false, 0, trips), Busy: nullRPC(rpc.TRPC, true, 0, trips)},
		{System: "ORPC", NoThread: nullRPC(rpc.ORPC, false, 0, trips), Busy: nullRPC(rpc.ORPC, true, 0, trips)},
		{System: "AM", NoThread: nullAM(false, 0, trips), Busy: nullAM(true, 0, trips)},
	}
}

// Table1Table formats Table1 like the paper.
func Table1Table() *Table {
	t := &Table{
		Title:   "Table 1: time (us) for a round-trip null RPC",
		Columns: []string{"System", "No thread running", "Some thread running"},
		Notes: []string{
			"paper (32 MHz CM-5): TRPC 21/74, ORPC 14/14, AM 13/-",
		},
	}
	for _, r := range Table1() {
		t.Rows = append(t.Rows, []string{r.System, us(r.NoThread), us(r.Busy)})
	}
	return t
}

// BulkRow is one point of the section 4.1.2 bulk-transfer sweep.
type BulkRow struct {
	Bytes int
	TRPC  sim.Duration
	ORPC  sim.Duration
	AM    sim.Duration
}

// Bulk reproduces section 4.1.2: null RPC round trip against payload
// size. Above the 16-byte Active Message payload limit the transfer
// switches to the bulk (scopy) path, adding ~40 us.
func Bulk() []BulkRow {
	const trips = 16
	sizes := []int{0, 8, 16, 64, 256, 640, 1024, 4096}
	rows := make([]BulkRow, len(sizes))
	for i, size := range sizes {
		rows[i] = BulkRow{
			Bytes: size,
			TRPC:  nullRPC(rpc.TRPC, false, size, trips),
			ORPC:  nullRPC(rpc.ORPC, false, size, trips),
			AM:    nullAM(false, size, trips),
		}
	}
	return rows
}

// BulkTable formats the sweep.
func BulkTable() *Table {
	t := &Table{
		Title:   "Section 4.1.2: null RPC round trip (us) vs payload size",
		Columns: []string{"Bytes", "TRPC", "ORPC", "AM"},
		Notes: []string{
			"payloads over 16 bytes use the bulk-transfer (scopy) path: +~40 us",
			"the absolute TRPC-ORPC gap stays constant as size grows",
		},
	}
	for _, r := range Bulk() {
		t.Rows = append(t.Rows, []string{itoa(r.Bytes), us(r.TRPC), us(r.ORPC), us(r.AM)})
	}
	return t
}

// AbortCost measures the cost of an aborted optimistic call (section
// 4.1.1: "an abort is either 7 or 60 microseconds, depending on whether
// the live-stack optimization can be applied"): the time from the start
// of the optimistic attempt to the promoted thread re-entering the body.
func AbortCost() (liveStack sim.Duration, withSwitch sim.Duration) {
	return nullAbortingRPC(false), nullAbortingRPC(true)
}

// nullAbortingRPC measures a round trip whose optimistic execution always
// aborts: the server main holds the lock exactly while the message is
// polled in, then releases it. In the idle case the main thread then
// suspends, so the promoted thread starts on the live stack (the paper's
// 7 us abort); in the busy case it stays runnable and yields, paying the
// create-plus-switch abort (the paper's 60 us).
func nullAbortingRPC(busy bool) sim.Duration {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{Mode: rpc.ORPC})
	mu := threads.NewMutex(u.Scheduler(1))
	stop := false
	var tripFlag *threads.Flag
	var attemptAt sim.Time
	var promoteLatency sim.Duration
	var promotions uint64
	inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte {
		// The body runs once optimistically (records the attempt time and
		// aborts at the lock) and once as the promoted thread (records
		// the promotion latency).
		if e.Optimistic() {
			attemptAt = e.Ctx().P.Now()
		} else {
			promoteLatency += e.Ctx().P.Now().Sub(attemptAt)
			promotions++
		}
		e.Lock(mu)
		if tripFlag != nil && !tripFlag.IsSet() {
			tripFlag.Set() // wake the suspended server main for the next trip
		}
		e.Unlock(mu)
		return nil
	})
	stopP := rt.DefineAsync("stop", func(e *oam.Env, caller int, arg []byte) []byte {
		stop = true
		if tripFlag != nil && !tripFlag.IsSet() {
			tripFlag.Set()
		}
		return nil
	})
	const trips = 32
	aborted := func() uint64 { return inc.Stats().Promoted }
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 1 {
			for !stop {
				var f *threads.Flag
				if !busy {
					f = &threads.Flag{}
					tripFlag = f
				}
				// Hold the lock while the request is polled in, so the
				// optimistic attempt aborts and its thread queues.
				mu.Lock(c)
				base := aborted()
				ep.PollUntil(c, func() bool { return aborted() != base || stop })
				mu.Unlock(c)
				if stop {
					return
				}
				if busy {
					c.S.Yield(c) // runnable: full-switch abort path
				} else {
					f.Wait(c) // suspended: live-stack abort path
				}
			}
			return
		}
		for i := 0; i < trips; i++ {
			inc.Call(c, 1, nil)
		}
		stopP.CallAsync(c, 1, nil)
	})
	if err != nil {
		panic(fmt.Sprintf("exp: aborting RPC deadlocked: %v", err))
	}
	if got := aborted(); got < trips {
		panic(fmt.Sprintf("exp: only %d of %d calls aborted", got, trips))
	}
	return promoteLatency / sim.Duration(promotions)
}
