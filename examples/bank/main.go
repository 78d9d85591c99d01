// Bank: a bounded account demonstrating why Optimistic Active Messages
// matter. Withdrawals block until the balance covers them — code that is
// simply illegal in a plain Active Messages handler (handlers must never
// block). Under OAM the same procedure body runs optimistically in the
// handler when the money is there and is promoted to a thread when it
// must wait on the condition variable.
package main

import (
	"fmt"

	"repro/internal/core"
)

func main() {
	c := core.NewCluster(core.Options{Nodes: 3, Seed: 7})

	const bankNode = 0
	balance := int64(0)
	mu := c.NewMutex(bankNode)
	cv := c.NewCond(mu)

	deposit := c.Define("deposit", func(e *core.Env, caller int, arg []byte) []byte {
		amount := core.Dec(arg).I64()
		e.Lock(mu)
		balance += amount
		e.Broadcast(cv)
		e.Unlock(mu)
		return nil
	})

	// withdraw blocks until the balance suffices: Env.Await aborts the
	// optimistic attempt when the predicate is false, and the promoted
	// thread waits on the condition variable like any blocking code.
	withdraw := c.Define("withdraw", func(e *core.Env, caller int, arg []byte) []byte {
		amount := core.Dec(arg).I64()
		e.Lock(mu)
		e.Await(cv, func() bool { return balance >= amount })
		balance -= amount
		left := balance
		e.Unlock(mu)
		out := core.Enc(8)
		out.I64(left)
		return out.Bytes()
	})

	_, err := c.Run(func(ctx core.Ctx, node int) {
		switch node {
		case 1: // the impatient withdrawer: asks before the money exists
			arg := core.Enc(8)
			arg.I64(300)
			rep := withdraw.Call(ctx, bankNode, arg)
			fmt.Printf("node 1: withdrew 300, balance now %d (at t=%v)\n",
				core.Dec(rep.Bytes()).I64(), ctx.P.Now())
		case 2: // the slow depositor
			for i := 0; i < 3; i++ {
				ctx.P.Charge(core.Micros(500))
				arg := core.Enc(8)
				arg.I64(150)
				deposit.Call(ctx, bankNode, arg)
				fmt.Printf("node 2: deposited 150 (at t=%v)\n", ctx.P.Now())
			}
		}
	})
	if err != nil {
		panic(err)
	}
	st := c.OAMStats()
	fmt.Printf("OAMs: %d total, %d ran in the handler, %d promoted to threads\n",
		st.Total, st.Succeeded, st.Promoted)
	fmt.Println("the withdrawal blocked in a remote procedure — impossible with plain Active Messages")
}
