// Quickstart: a three-node cluster where two clients increment a counter
// on a server with synchronous optimistic RPCs. Run it twice — once with
// ORPC and once with TRPC — and compare round-trip costs, reproducing the
// spirit of Table 1 in a dozen lines of application code.
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

func run(mode rpc.Mode) {
	eng := sim.New(42)
	defer eng.Shutdown()
	rt := rpc.New(am.NewUniverse(eng, 3, cm5.DefaultCostModel()), rpc.Options{Mode: mode})
	count := 0
	inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte {
		count++
		return nil
	})
	elapsed, err := rt.Universe().SPMD(func(ctx threads.Ctx, node int) {
		if node == 0 {
			return // node 0 serves from its scheduler loop
		}
		for i := 0; i < 100; i++ {
			inc.Call(ctx, 0, nil)
		}
	})
	if err != nil {
		panic(err)
	}
	st := rt.Dispatcher().Stats()
	fmt.Printf("%-4v  counter=%d  elapsed=%8.1fus  oams=%d  succeeded=%d\n",
		mode, count, float64(elapsed)/1000, st.Total, st.Succeeded)
}

func main() {
	fmt.Println("200 null RPCs from 2 clients to 1 server:")
	run(rpc.ORPC)
	run(rpc.TRPC)
	fmt.Println("ORPC runs every call inside the message handler (no threads);")
	fmt.Println("TRPC pays thread creation and switching for each call.")
}
