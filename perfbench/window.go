package main

import (
	"sync/atomic"
	"time"
)

// window gathers what one measured window of a workload observed; its
// figures turn into the end-to-end and per-layer metrics.
type window struct {
	// limit is the workload's admission latency limit for goodput.
	limit time.Duration

	seconds float64 // measured wall time

	requests, admitted, withinLimit atomic.Int64
	sessionsDone                    atomic.Int64
	events, preempted               atomic.Int64

	admit, session  samples // µs
	adapt, restore  samples // µs
	late            samples // µs, open-loop generator lateness
	setup, recovery []float64

	heapPeakMB float64
	delta      counterDelta
	walRecB    float64 // mean on-disk bytes of one WAL record
	replayed   int64   // WAL records replayed by the first recovery
	tr         *tracer
}

func newWindow(limit time.Duration) *window { return &window{limit: limit} }

// admission records one admission call's latency and outcome.
func (w *window) admission(d time.Duration, ok bool) {
	w.requests.Add(1)
	w.admit.add(d)
	if ok {
		w.admitted.Add(1)
		if d <= w.limit {
			w.withinLimit.Add(1)
		}
	}
}

func per(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// e2e computes the end-to-end metrics.
func (w *window) e2e() map[string]float64 {
	admit := w.admit.values()
	sess := w.session.values()
	adapt := w.adapt.values()
	restore := w.restore.values()
	return map[string]float64{
		"setup_s":        median(w.setup),
		"sessions_per_s": per(float64(w.sessionsDone.Load()), w.seconds),
		"admit_p50_us":   quantile(admit, 0.5),
		"admit_p99_us":   tailQuantile(admit, 0.99),
		"session_p50_us": quantile(sess, 0.5),
		"session_p99_us": tailQuantile(sess, 0.99),
		"goodput_per_s":  per(float64(w.withinLimit.Load()), w.seconds),
		"adapt_p50_ms":   quantile(adapt, 0.5) / 1e3,
		"adapt_p99_ms":   tailQuantile(adapt, 0.99) / 1e3,
		"restore_p50_ms": quantile(restore, 0.5) / 1e3,
		"recover_s":      median(w.recovery),
		"heap_peak_mb":   w.heapPeakMB,
		"cpu_us_per_session": per(float64(w.delta.processCPU.Microseconds()),
			float64(w.sessionsDone.Load())),
		"admit_ratio": per(float64(w.admitted.Load()), float64(w.requests.Load())),
	}
}

// layers computes the per-layer metrics from the tracer's spans and the
// program's counters.
func (w *window) layers() map[string]float64 {
	t := w.tr
	if t == nil {
		t = newTracer()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p50 := func(name string) float64 { return quantile(t.durs[name], 0.5) }
	n := func(name string) float64 { return float64(len(t.durs[name])) }
	reqs := float64(w.requests.Load())
	adm := float64(w.admitted.Load())
	ev := float64(w.events.Load())
	d := w.delta
	late := w.late.values()
	m := map[string]float64{
		"core.request_p50_us":           p50("core.request"),
		"core.accept_p50_us":            p50("core.accept"),
		"core.invoke_p50_us":            p50("core.invoke"),
		"core.renegotiate_p50_us":       p50("core.renegotiate"),
		"core.terminate_p50_us":         p50("core.terminate"),
		"core.request_self_p50_us":      quantile(t.self["core.request"], 0.5),
		"core.verify_p50_us":            p50("core.verify"),
		"core.optimizer_p50_us":         p50("core.optimizer"),
		"core.notify_failure_p50_us":    p50("core.notify_failure"),
		"registry.finds_per_admit":      per(n("registry.find"), reqs),
		"registry.find_p50_us":          p50("registry.find"),
		"registry.cache_hit_ratio":      d.hitRatio(),
		"gara.reserves_per_admit":       per(n("gara.reserve"), reqs),
		"gara.reserve_p50_us":           p50("gara.reserve"),
		"gara.cancel_p50_us":            p50("gara.cancel"),
		"gara.modify_p50_us":            p50("gara.modify"),
		"sla.repo_puts_per_session":     per(n("sla.repo_put"), adm),
		"sla.repo_put_p50_us":           p50("sla.repo_put"),
		"pricing.entries_per_session":   per(float64(d.ledgerEntries), adm),
		"adapt.compensations_per_admit": per(float64(d.lifecycle["compensate"]), reqs),
		"adapt.degraded_per_event":      per(float64(d.lifecycle["degrade"]), ev),
		"adapt.terminated_per_event":    per(float64(d.lifecycle["terminate"]), ev),
		"adapt.preempted_per_event":     per(float64(w.preempted.Load()), ev),
		"adapt.promotions_per_event":    per(float64(d.lifecycle["promote"]), ev),
		"rm.rectify_calls_per_event":    per(float64(t.counts["rm.rectify_calls"]), ev),
		"rm.rectify_ok_ratio":           per(float64(t.counts["rm.rectify_ok"]), float64(t.counts["rm.rectify_calls"])),
		"rm.rectify_p50_us":             p50("rm.rectify"),
		"nrm.checks_per_event":          per(float64(d.nrmFlowsChecked), ev),
		"httpapi.server_p50_us":         p50("httpapi.server"),
		"httpapi.wire_p50_us":           quantile(t.wireUS["httpapi.server"], 0.5),
		"intake.batch_mean":             per(float64(d.intakeSubmitted), float64(d.intakeFlushes)),
		"intake.flushes_per_admit":      per(float64(d.intakeFlushes), reqs),
		"wal.records_per_session":       per(float64(d.walAppends), adm),
		"wal.fsyncs_per_session":        per(float64(d.walSyncs), adm),
		"wal.bytes_per_session":         per(float64(d.walAppends), adm) * w.walRecB,
		"wal.snapshots":                 float64(d.walSnapshots),
		"wal.replayed_records":          float64(w.replayed),
		"soapx.server_p50_us":           p50("soapx.server"),
		"soapx.wire_p50_us":             quantile(t.wireUS["soapx.server"], 0.5),
		"runtime.allocs_per_session":    per(d.allocObjects, adm),
		"runtime.bytes_per_session":     per(d.allocBytes, adm),
		"runtime.gc_cpu_fraction":       per(d.gcCPU, d.totalCPU),
		"gen.late_p50_us":               quantile(late, 0.5),
		"gen.late_p99_us":               tailQuantile(late, 0.99),
	}
	return m
}
