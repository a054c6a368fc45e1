//go:build !unix

package main

import "time"

// processCPU is not measured on this platform; cpu_us_per_session reads 0.
func processCPU() time.Duration { return 0 }
