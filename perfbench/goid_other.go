//go:build !amd64

package main

import "runtime"

// goid identifies the calling goroutine for the traced run by parsing
// its stack header ("goroutine 123 [running]:"); slower than the amd64
// thread-local read, but portable.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
