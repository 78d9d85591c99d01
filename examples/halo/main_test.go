package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// ran 200 rounds; ring mean 3.5000 (expected 3.5000)
	// OAMs: 3200 total, 100.0% ran without blocking
}
