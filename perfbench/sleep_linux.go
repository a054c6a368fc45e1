package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread for d. The runtime's timers
// wake with about a millisecond's granularity on Linux, which would make
// the open-loop generator late by half a millisecond on average; a
// nanosleep wakes within tens of microseconds without spinning.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just wakes early; the caller re-checks the time
}
