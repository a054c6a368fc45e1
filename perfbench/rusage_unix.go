//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time the process has used, user plus
// system; time the hypervisor gave to other guests is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
