package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// node 2: deposited 150 (at t=514.500us)
	// node 2: deposited 150 (at t=1029.000us)
	// node 1: withdrew 300, balance now 0 (at t=1031.200us)
	// node 2: deposited 150 (at t=1543.500us)
	// OAMs: 4 total, 3 ran in the handler, 1 promoted to threads
	// the withdrawal blocked in a remote procedure — impossible with plain Active Messages
}
