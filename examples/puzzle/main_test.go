package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// side-5 board: 849 positions, 2423 extensions, 1550 solutions
	// sequential (simulated): 0.030s
	//
	// 8-node runs (distributed transposition table, async 16-byte RPCs):
	//   AM    runtime    0.007s  speedup  4.37  threads      8  livestack 100.0%  answer OK
	//   ORPC  runtime    0.008s  speedup  3.99  threads      8  livestack 100.0%  answer OK
	//   TRPC  runtime    0.019s  speedup  1.56  threads   2431  livestack  59.1%  answer OK
	//
	// TRPC pays a thread per insert; ORPC runs the same inserts as
	// Optimistic Active Messages and touches the thread package only on aborts.
}
