package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/invariant"
)

// setupWarm assemblies run untimed first, so set-up is timed with the
// code paths and the heap warm; setupRepeats are then timed and setup_s
// is their median.
const (
	setupWarm    = 3
	setupRepeats = 21
)

// restartRepeats is how many cold restarts a run without a WAL times;
// recover_s is the median.
const restartRepeats = 101

// buildStacks assembles the deployment setupWarm+setupRepeats times,
// recording the timed assemblies' wall times in w.setup, and returns the
// last one; the earlier ones are closed.
func buildStacks(w *window, build func() (*stack, error)) (*stack, error) {
	var st *stack
	for i := 0; i < setupWarm+setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		start := time.Now()
		s, err := build()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i >= setupWarm {
			w.setup = append(w.setup, time.Since(start).Seconds())
		}
		st = s
	}
	return st, nil
}

// checkDrained runs the end-of-workload gates on a broker whose every
// session has been driven terminal: the invariant oracle, the final
// reservation rules, and every unit of capacity back in its pool.
func checkDrained(st *stack) error {
	b := st.broker
	now := st.clock.Now()
	if err := invariant.CheckAll(b, now, st.pool); err != nil {
		return gatef("invariants after drain: %v", err)
	}
	if err := invariant.CheckReservations(b, st.gara, invariant.ReservationCheck{Final: true}); err != nil {
		return gatef("reservations after drain: %v", err)
	}
	for si, a := range b.Allocators() {
		plan := a.Plan()
		if users := a.GuaranteedUsers(); len(users) != 0 {
			return gatef("capacity leaked: shard %d keeps %d guaranteed grant(s)", si, len(users))
		}
		if got := a.AvailableGuaranteed(); !got.Equal(plan.Guaranteed) {
			return gatef("capacity lost: shard %d guaranteed headroom %v, want %v", si, got, plan.Guaranteed)
		}
		if got := a.AvailableBestEffort(); !got.Equal(plan.Total()) {
			return gatef("capacity lost: shard %d best-effort headroom %v, want %v", si, got, plan.Total())
		}
	}
	if got, want := st.pool.Available(now), st.pool.Total(); !got.Equal(want) {
		return gatef("capacity lost: pool holds %v free of %v", got, want)
	}
	return nil
}

// coldRestarts times recovery for a workload without a WAL: the broker
// dies and a replacement is built over the surviving substrates. The
// replacement starts empty; it must pass the invariant oracle.
func coldRestarts(w *window, st *stack) error {
	runtime.GC()
	for i := 0; i < restartRepeats; i++ {
		start := time.Now()
		st.broker.Crash()
		b, err := core.NewBroker(st.cfg)
		if err != nil {
			return fmt.Errorf("cold restart: %w", err)
		}
		w.recovery = append(w.recovery, time.Since(start).Seconds())
		st.broker = b
		if err := invariant.CheckAll(b, st.clock.Now(), st.pool); err != nil {
			return gatef("invariants after cold restart: %v", err)
		}
	}
	return nil
}

// tempDir makes a fresh directory under the run's work directory.
func tempDir(rc runCtx, prefix string) (string, error) {
	return os.MkdirTemp(rc.workDir, prefix)
}
