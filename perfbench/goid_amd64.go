package main

// getg returns the address of the calling goroutine's runtime record,
// read from thread-local storage. It is unique among live goroutines
// and stable for a goroutine's lifetime, which is all the tracer needs.
func getg() uintptr

// goid identifies the calling goroutine for the traced run.
func goid() uint64 { return uint64(getg()) }
