//go:build !linux

package main

import "time"

// preciseSleep sleeps for d on the runtime's timers.
func preciseSleep(d time.Duration) { time.Sleep(d) }
