// Bank: a bounded account demonstrating why Optimistic Active Messages
// matter. Withdrawals block until the balance covers them — code that is
// simply illegal in a plain Active Messages handler (handlers must never
// block). Under OAM the same procedure body runs optimistically in the
// handler when the money is there and is promoted to a thread when it
// must wait on the condition variable.
package main

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

func main() {
	eng := sim.New(7)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 3, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{Mode: rpc.ORPC})

	const bankNode = 0
	balance := int64(0)
	mu := threads.NewMutex(u.Scheduler(bankNode))
	cv := threads.NewCond(mu)

	deposit := rt.Define("deposit", func(e *oam.Env, caller int, arg []byte) []byte {
		amount := rpc.NewDec(arg).I64()
		e.Lock(mu)
		balance += amount
		e.Broadcast(cv)
		e.Unlock(mu)
		return nil
	})

	// withdraw blocks until the balance suffices: Env.Await aborts the
	// optimistic attempt when the predicate is false, and the promoted
	// thread waits on the condition variable like any blocking code.
	withdraw := rt.Define("withdraw", func(e *oam.Env, caller int, arg []byte) []byte {
		amount := rpc.NewDec(arg).I64()
		e.Lock(mu)
		e.Await(cv, func() bool { return balance >= amount })
		balance -= amount
		left := balance
		e.Unlock(mu)
		out := rpc.NewEnc(8)
		out.I64(left)
		return out.Bytes()
	})

	_, err := u.SPMD(func(ctx threads.Ctx, node int) {
		switch node {
		case 1: // the impatient withdrawer: asks before the money exists
			arg := rpc.NewEnc(8)
			arg.I64(300)
			rep := withdraw.Call(ctx, bankNode, arg)
			fmt.Printf("node 1: withdrew 300, balance now %d (at t=%v)\n",
				rpc.NewDec(rep.Bytes()).I64(), ctx.P.Now())
		case 2: // the slow depositor
			for i := 0; i < 3; i++ {
				ctx.P.Charge(sim.Micros(500))
				arg := rpc.NewEnc(8)
				arg.I64(150)
				deposit.Call(ctx, bankNode, arg)
				fmt.Printf("node 2: deposited 150 (at t=%v)\n", ctx.P.Now())
			}
		}
	})
	if err != nil {
		panic(err)
	}
	st := rt.Dispatcher().Stats()
	fmt.Printf("OAMs: %d total, %d ran in the handler, %d promoted to threads\n",
		st.Total, st.Succeeded, st.Promoted)
	fmt.Println("the withdrawal blocked in a remote procedure — impossible with plain Active Messages")
}
