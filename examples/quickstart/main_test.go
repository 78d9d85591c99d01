package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// 200 null RPCs from 2 clients to 1 server:
	// ORPC  counter=200  elapsed=  1364.5us  oams=200  succeeded=200
	// TRPC  counter=200  elapsed=  2309.1us  oams=0  succeeded=0
	// ORPC runs every call inside the message handler (no threads);
	// TRPC pays thread creation and switching for each call.
}
