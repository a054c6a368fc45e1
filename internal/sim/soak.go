package sim

import (
	"fmt"
	"runtime"
)

// This file is the long-run soak harness: RunSoak replays a scenario for
// a large number of broker operations on the virtual clock, with the
// working set bounded (terminal-state pruning plus ledger retention), and
// samples process health — goroutine count, heap, rolling admission p99 —
// at every quiesce window. The oracle still runs continuously; on top of
// it the soak verdict asserts the process is *stable*: goroutines and
// heap bounded, tail latency flat. Everything under the "soak" JSON key
// (like "latency") is wall-clock/runtime derived and therefore excluded
// from determinism comparisons.

// SoakConfig sizes a soak run. The embedded ScenarioConfig is used as in
// RunScenario except that Prune is forced on and Phases is driven by
// Windows.
type SoakConfig struct {
	ScenarioConfig
	// Windows is the number of sampling windows (default 40).
	Windows int
	// LedgerRetention bounds the broker ledger's entry window (default
	// 4096; aggregates stay exact across eviction).
	LedgerRetention int
	// GoroutineSlack is the allowed goroutine growth over the run's
	// starting count (default 16).
	GoroutineSlack int
	// HeapFactor bounds the maximum sampled heap against the first
	// window's baseline (default 8; a 32 MiB floor absorbs tiny-heap
	// noise).
	HeapFactor float64
	// P99Factor bounds the median window-p99 of the run's second half
	// against the first half's (default 8; a 50 µs floor absorbs
	// scheduler noise on very fast admissions).
	P99Factor float64
}

func (cfg SoakConfig) withDefaults() SoakConfig {
	cfg.ScenarioConfig = cfg.ScenarioConfig.withDefaults()
	if cfg.Windows <= 0 {
		cfg.Windows = 40
	}
	if cfg.LedgerRetention <= 0 {
		cfg.LedgerRetention = 4096
	}
	if cfg.GoroutineSlack <= 0 {
		cfg.GoroutineSlack = 16
	}
	if cfg.HeapFactor <= 0 {
		cfg.HeapFactor = 8
	}
	if cfg.P99Factor <= 0 {
		cfg.P99Factor = 8
	}
	cfg.Prune = true
	cfg.Phases = cfg.Windows
	return cfg
}

// SoakWindow is one sampling point, taken at a quiesce barrier.
type SoakWindow struct {
	Window     int     `json:"window"`
	Ops        int64   `json:"ops"`
	Goroutines int     `json:"goroutines"`
	HeapBytes  uint64  `json:"heap_bytes"`
	P99MS      float64 `json:"p99_ms"` // admission p99 within this window
	Samples    int     `json:"samples"`
}

// SoakStats is the runtime-health block of a soak report. Like the
// latency block it is not deterministic; strip it (jq 'del(.soak)')
// before byte-diffing soak reports.
type SoakStats struct {
	Windows []SoakWindow `json:"windows"`

	GoroutinesStart int    `json:"goroutines_start"`
	GoroutinesMax   int    `json:"goroutines_max"`
	HeapBaseBytes   uint64 `json:"heap_base_bytes"`
	HeapMaxBytes    uint64 `json:"heap_max_bytes"`

	// P99FirstHalfMS and P99LastHalfMS are the medians of the window
	// p99s over each half of the run — the flat-tail comparison.
	P99FirstHalfMS float64 `json:"p99_first_half_ms"`
	P99LastHalfMS  float64 `json:"p99_last_half_ms"`

	Stable   bool     `json:"stable"`
	Problems []string `json:"problems,omitempty"`
}

// SoakReport is a scenario report plus the soak-health verdict.
type SoakReport struct {
	ScenarioReport
	Soak *SoakStats `json:"soak"`
}

// Failed gates CI: any oracle violation, scenario assertion failure, or
// instability verdict.
func (r *SoakReport) Failed() bool {
	return r.ScenarioReport.Failed() || r.Soak == nil || !r.Soak.Stable
}

// RunSoak replays the scenario in long-run mode: working set bounded,
// runtime health sampled per window, stability asserted. A non-nil error
// means the harness itself failed; oracle violations, assertion failures
// and instability land in the report (see SoakReport.Failed).
func RunSoak(sc Scenario, cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	run, err := newScenarioRun(sc, cfg.ScenarioConfig)
	if err != nil {
		return nil, err
	}
	defer run.Cluster.Close()
	run.Cluster.Broker.Ledger().SetRetention(cfg.LedgerRetention)

	stats := &SoakStats{GoroutinesStart: runtime.NumGoroutine()}
	lastLat := 0
	sample := func(window int) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		lat := run.latencies[lastLat:]
		lastLat = len(run.latencies)
		w := SoakWindow{
			Window:     window,
			Ops:        run.Report.Ops,
			Goroutines: runtime.NumGoroutine(),
			HeapBytes:  ms.HeapAlloc,
			Samples:    len(lat),
		}
		if s := summarizeLatency(lat); s != nil {
			w.P99MS = s.P99MS
		}
		stats.Windows = append(stats.Windows, w)
	}

	if err := run.play(sc, sample); err != nil {
		return &SoakReport{ScenarioReport: *run.Report, Soak: stats}, err
	}
	run.finish(sc)
	judge(stats, cfg)
	return &SoakReport{ScenarioReport: *run.Report, Soak: stats}, nil
}

// judge fills the aggregate fields and the stability verdict.
func judge(stats *SoakStats, cfg SoakConfig) {
	if len(stats.Windows) == 0 {
		stats.Problems = append(stats.Problems, "no sampling windows")
		return
	}
	stats.HeapBaseBytes = stats.Windows[0].HeapBytes
	for _, w := range stats.Windows {
		if w.Goroutines > stats.GoroutinesMax {
			stats.GoroutinesMax = w.Goroutines
		}
		if w.HeapBytes > stats.HeapMaxBytes {
			stats.HeapMaxBytes = w.HeapBytes
		}
	}
	var p99s []float64
	for _, w := range stats.Windows {
		if w.Samples > 0 {
			p99s = append(p99s, w.P99MS)
		}
	}
	half := len(p99s) / 2
	stats.P99FirstHalfMS = percentile(sortedCopy(p99s[:half]), 0.5)
	stats.P99LastHalfMS = percentile(sortedCopy(p99s[half:]), 0.5)

	if lim := stats.GoroutinesStart + cfg.GoroutineSlack; stats.GoroutinesMax > lim {
		stats.Problems = append(stats.Problems,
			fmt.Sprintf("goroutines grew %d -> %d (limit %d): leak", stats.GoroutinesStart, stats.GoroutinesMax, lim))
	}
	heapBase := stats.HeapBaseBytes
	if floor := uint64(32 << 20); heapBase < floor {
		heapBase = floor
	}
	if lim := uint64(float64(heapBase) * cfg.HeapFactor); stats.HeapMaxBytes > lim {
		stats.Problems = append(stats.Problems,
			fmt.Sprintf("heap grew %d -> %d bytes (limit %d): working set unbounded", stats.HeapBaseBytes, stats.HeapMaxBytes, lim))
	}
	first := stats.P99FirstHalfMS
	if floor := 0.05; first < floor {
		first = floor
	}
	if half > 0 && stats.P99LastHalfMS > cfg.P99Factor*first {
		stats.Problems = append(stats.Problems,
			fmt.Sprintf("admission p99 rose %.3fms -> %.3fms (limit %.3fms): tail not flat",
				stats.P99FirstHalfMS, stats.P99LastHalfMS, cfg.P99Factor*first))
	}
	stats.Stable = len(stats.Problems) == 0
}
