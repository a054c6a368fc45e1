package main

import (
	"os"
	"path/filepath"
	"strings"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/obs"
	"gqosm/internal/wal"
)

// counterSnap reads the counters the program already exports: the obs
// registry, Broker.WALStats, the ledger and runtime/metrics.
type counterSnap struct {
	cacheHits, cacheMisses int64
	lifecycle              map[string]int64
	intakeSubmitted        int64
	intakeFlushes          int64
	nrmFlowsChecked        int64
	walAppends, walSyncs   int64
	walSnapshots           int64
	ledgerEntries          int64
	rt                     rtSnap
	cpu                    time.Duration
}

var lifecycleEvents = []string{"request", "request_error", "accept", "reject", "degrade",
	"promote", "expire", "terminate", "restore", "violation", "failure", "compensate"}

// Reading a series the program never touched yields zero: the obs
// registry creates on first use and hands back existing series by name.
func obsCounter(reg *obs.Registry, name string, labels ...string) int64 {
	return reg.Counter(name, "", labels...).Value()
}

func takeSnap(reg *obs.Registry, b *core.Broker) counterSnap {
	s := counterSnap{lifecycle: make(map[string]int64, len(lifecycleEvents))}
	s.cacheHits = obsCounter(reg, "gqosm_discovery_cache_hits_total")
	s.cacheMisses = obsCounter(reg, "gqosm_discovery_cache_misses_total")
	for _, e := range lifecycleEvents {
		s.lifecycle[e] = obsCounter(reg, "gqosm_broker_lifecycle_total", "event", e)
	}
	s.intakeSubmitted = obsCounter(reg, "gqosm_intake_submitted_total")
	s.intakeFlushes = obsCounter(reg, "gqosm_intake_flushes_total")
	s.nrmFlowsChecked = obsCounter(reg, "gqosm_nrm_flows_checked_total")
	s.walAppends, s.walSyncs, s.walSnapshots = b.WALStats()
	l := b.Ledger()
	s.ledgerEntries = int64(len(l.Entries())) + l.Evicted()
	s.rt = readRuntime()
	s.cpu = processCPU()
	return s
}

// counterDelta is the work counted between two snapshots.
type counterDelta struct {
	cacheHits, cacheMisses int64
	lifecycle              map[string]int64
	intakeSubmitted        int64
	intakeFlushes          int64
	nrmFlowsChecked        int64
	walAppends, walSyncs   int64
	walSnapshots           int64
	ledgerEntries          int64
	allocObjects           float64
	allocBytes             float64
	gcCPU, totalCPU        float64
	processCPU             time.Duration
}

func (a counterSnap) to(b counterSnap) counterDelta {
	d := counterDelta{
		cacheHits:       b.cacheHits - a.cacheHits,
		cacheMisses:     b.cacheMisses - a.cacheMisses,
		lifecycle:       make(map[string]int64, len(b.lifecycle)),
		intakeSubmitted: b.intakeSubmitted - a.intakeSubmitted,
		intakeFlushes:   b.intakeFlushes - a.intakeFlushes,
		nrmFlowsChecked: b.nrmFlowsChecked - a.nrmFlowsChecked,
		walAppends:      b.walAppends - a.walAppends,
		walSyncs:        b.walSyncs - a.walSyncs,
		walSnapshots:    b.walSnapshots - a.walSnapshots,
		ledgerEntries:   b.ledgerEntries - a.ledgerEntries,
		allocObjects:    float64(b.rt.allocObjects - a.rt.allocObjects),
		allocBytes:      float64(b.rt.allocBytes - a.rt.allocBytes),
		gcCPU:           b.rt.gcCPU - a.rt.gcCPU,
		totalCPU:        b.rt.totalCPU - a.rt.totalCPU,
		processCPU:      b.cpu - a.cpu,
	}
	for k, v := range b.lifecycle {
		d.lifecycle[k] = v - a.lifecycle[k]
	}
	return d
}

func (d counterDelta) add(o counterDelta) counterDelta {
	r := d
	r.cacheHits += o.cacheHits
	r.cacheMisses += o.cacheMisses
	r.lifecycle = make(map[string]int64, len(d.lifecycle))
	for k, v := range d.lifecycle {
		r.lifecycle[k] = v
	}
	for k, v := range o.lifecycle {
		r.lifecycle[k] += v
	}
	r.intakeSubmitted += o.intakeSubmitted
	r.intakeFlushes += o.intakeFlushes
	r.nrmFlowsChecked += o.nrmFlowsChecked
	r.walAppends += o.walAppends
	r.walSyncs += o.walSyncs
	r.walSnapshots += o.walSnapshots
	r.ledgerEntries += o.ledgerEntries
	r.allocObjects += o.allocObjects
	r.allocBytes += o.allocBytes
	r.gcCPU += o.gcCPU
	r.totalCPU += o.totalCPU
	r.processCPU += o.processCPU
	return r
}

func (d counterDelta) hitRatio() float64 {
	if n := d.cacheHits + d.cacheMisses; n > 0 {
		return float64(d.cacheHits) / float64(n)
	}
	return 0
}

// walRecordBytes returns the mean on-disk size of a journaled record:
// the bytes of the log segments present in dir over the records they
// hold (frame headers included).
func walRecordBytes(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var bytes, records int
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "wal-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		recs, err := wal.DecodeLog(data)
		if err != nil || len(recs) == 0 {
			continue
		}
		bytes += len(data)
		records += len(recs)
	}
	if records == 0 {
		return 0
	}
	return float64(bytes) / float64(records)
}
