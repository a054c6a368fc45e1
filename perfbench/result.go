package main

import (
	"errors"
	"sync/atomic"

	"gqosm/internal/core"
	"gqosm/internal/sla"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unit pairs a metric name with its unit.
type unit struct{ name, unit string }

// e2eUnits lists the bounded end-to-end metrics with their units: the
// metrics of the result line of an untraced run. Every workload reports
// all of them. They are the figures that stay steady from run to run on
// a shared machine: rates, memory and CPU cost per session.
var e2eUnits = []unit{
	{"setup_s", "s"},
	{"sessions_per_s", "1/s"},
	{"goodput_per_s", "1/s"},
	{"heap_peak_mb", "MiB"},
	{"cpu_us_per_session", "us"},
}

// unboundedUnits lists the end-to-end metrics printed, with their
// units, on the report line of every run but carrying no bound. The
// latencies and the recovery time follow fsync and scheduling stalls: on
// a shared 2-vCPU machine their run-to-run spread on json-durable
// exceeds the largest bound a regression gate may use. admit_ratio reads
// exactly 1 on every run of the two transport workloads (see README.md).
var unboundedUnits = []unit{
	{"admit_p50_us", "us"},
	{"admit_p99_us", "us"},
	{"session_p50_us", "us"},
	{"session_p99_us", "us"},
	{"adapt_p50_ms", "ms"},
	{"adapt_p99_ms", "ms"},
	{"restore_p50_ms", "ms"},
	{"recover_s", "s"},
	{"admit_ratio", "ratio"},
}

// layerUnits lists every per-layer metric with its unit, in print order.
// A workload where a layer does no work reports 0 for it.
var layerUnits = []unit{
	{"core.request_p50_us", "us"},
	{"core.accept_p50_us", "us"},
	{"core.invoke_p50_us", "us"},
	{"core.renegotiate_p50_us", "us"},
	{"core.terminate_p50_us", "us"},
	{"core.request_self_p50_us", "us"},
	{"core.verify_p50_us", "us"},
	{"core.optimizer_p50_us", "us"},
	{"core.notify_failure_p50_us", "us"},
	{"registry.finds_per_admit", "count"},
	{"registry.find_p50_us", "us"},
	{"registry.cache_hit_ratio", "ratio"},
	{"gara.reserves_per_admit", "count"},
	{"gara.reserve_p50_us", "us"},
	{"gara.cancel_p50_us", "us"},
	{"gara.modify_p50_us", "us"},
	{"sla.repo_puts_per_session", "count"},
	{"sla.repo_put_p50_us", "us"},
	{"pricing.entries_per_session", "count"},
	{"adapt.compensations_per_admit", "count"},
	{"adapt.degraded_per_event", "count"},
	{"adapt.terminated_per_event", "count"},
	{"adapt.preempted_per_event", "count"},
	{"adapt.promotions_per_event", "count"},
	{"rm.rectify_calls_per_event", "count"},
	{"rm.rectify_ok_ratio", "ratio"},
	{"rm.rectify_p50_us", "us"},
	{"nrm.checks_per_event", "count"},
	{"httpapi.server_p50_us", "us"},
	{"httpapi.wire_p50_us", "us"},
	{"intake.batch_mean", "count"},
	{"intake.flushes_per_admit", "count"},
	{"wal.records_per_session", "count"},
	{"wal.fsyncs_per_session", "count"},
	{"wal.bytes_per_session", "bytes"},
	{"wal.snapshots", "count"},
	{"wal.replayed_records", "count"},
	{"soapx.server_p50_us", "us"},
	{"soapx.wire_p50_us", "us"},
	{"runtime.allocs_per_session", "count"},
	{"runtime.bytes_per_session", "bytes"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// adaptCounts are the adaptation outcome counts of a failure-adapt
// episode, with its discovery cache hits and misses. They are a pure
// function of the seed: a traced run and an untraced run must produce
// identical counts.
type adaptCounts struct {
	Events, Degraded, Terminated, Preempted, Promotions, Violations int64
	CacheHits, CacheMisses                                          int64
}

// result is what one workload pass measured.
type result struct {
	e2e    map[string]float64
	layers map[string]float64
	// attempted / failed count every broker call the workload made;
	// capacity refusals and other documented expected answers are not
	// failures.
	attempted, failed int64
	// counts is failure-adapt's first-episode adaptation outcome.
	counts *adaptCounts
	// cacheHits and cacheMisses count the discovery cache's answers over
	// the window (on failure-adapt, over episode 0).
	cacheHits, cacheMisses int64
	// unitCost is the wall time of a unit of work the traced and the
	// untraced pass both do, for trace.overhead_ratio: a session on the
	// closed loops, the median admission on the open loop (whose
	// throughput is the offered rate), and episode 0's cycles on
	// failure-adapt.
	unitCost float64
	// notes are human-readable facts printed beside the metrics.
	notes map[string]any
}

// callStats counts calls and classifies their errors.
type callStats struct {
	attempted, failed atomic.Int64
	firstErrs         chan string
}

func newCallStats() *callStats { return &callStats{firstErrs: make(chan string, 8)} }

// note counts one call. A nil error or an expected refusal is a success.
func (c *callStats) note(op string, err error, expected bool) {
	c.attempted.Add(1)
	if err == nil || expected {
		return
	}
	c.failed.Add(1)
	select {
	case c.firstErrs <- op + ": " + err.Error():
	default:
	}
}

func (c *callStats) errs() []string {
	var out []string
	for {
		select {
		case s := <-c.firstErrs:
			out = append(out, s)
		default:
			return out
		}
	}
}

// isRefusal reports a capacity decision: the broker answered, and the
// answer was no. These are outcomes of admission control, not failures.
func isRefusal(err error) bool {
	return errors.Is(err, core.ErrCannotHonor) || errors.Is(err, core.ErrBestEffortFull) ||
		errors.Is(err, core.ErrInfeasible)
}

// lapsed reports that a call failed because its session ended
// concurrently by the broker's own hand: expiry on the shared clock,
// scenario-1 compensation terminating a willing session, or adaptation
// terminating a degraded one. A client cannot avoid racing these.
func lapsed(b *core.Broker, id sla.ID, err error) bool {
	if err == nil {
		return false
	}
	doc, derr := b.Session(id)
	if derr != nil {
		return errors.Is(derr, core.ErrUnknownSession)
	}
	return doc.State.Terminal()
}
