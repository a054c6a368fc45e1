// Command perfbench is the repository's benchmark. It runs one seeded
// workload against a G-QoSM broker assembled from the repository's
// packages, checks the results, and prints the workload's metrics.
//
//	go run . --workload inproc-lifecycle --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run measures an untraced pass
// and a traced pass of half the time each, and prints the per-layer
// metrics of the traced pass. A failed correctness gate exits non-zero
// without printing a result. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one seeded traffic mix; README.md and each workload's
// file say why it exists.
type workload struct {
	name string
	run  func(rc runCtx) (*result, error)
}

// runCtx is what a workload pass is given.
type runCtx struct {
	seed    int64
	dur     time.Duration
	tr      *tracer // nil: untraced
	tiny    bool    // shrink every size for the benchmark's own tests
	workDir string  // scratch space inside the checkout (WAL directories)
}

var workloads = []workload{
	{"inproc-lifecycle", runInproc},
	{"json-durable", runJSON},
	{"failure-adapt", runFailure},
	{"soap-lifecycle", runSOAP},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: inproc-lifecycle, json-durable, failure-adapt or soap-lifecycle")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: print per-layer metrics from a traced pass")
	tiny := fs.Bool("tiny", false, "shrink every size (for tests)")
	workDir := fs.String("work-dir", ".bench_build", "directory for WAL and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	env := readEnvironment(*seed, w.name, *trace == 1, *workDir)
	rc := runCtx{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), tiny: *tiny, workDir: *workDir}

	cpu0 := readCPUStat()
	out, err := measure(w, rc, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	out.report["cpu_steal_share"] = stealShare(cpu0, readCPUStat())
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(map[string]any{"environment": env})
	_ = enc.Encode(map[string]any{"report": out.report})
	_ = enc.Encode(out.final)
	return 0
}

// output is a run's printable result.
type output struct {
	report map[string]any
	final  map[string]any
}

// measure runs the workload (twice in a traced run) and applies the
// cross-pass gates.
func measure(w workload, rc runCtx, traced bool) (*output, error) {
	if !traced {
		res, err := w.run(rc)
		if err != nil {
			return nil, err
		}
		return finalOutput(res, res.e2e, e2eUnits, nil), nil
	}
	half := rc
	half.dur = rc.dur / 2
	plain, err := w.run(half)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	half.tr = newTracer()
	tracedRes, err := w.run(half)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := faithful(plain, tracedRes); err != nil {
		return nil, err
	}
	layers := tracedRes.layers
	layers["trace.overhead_ratio"] = overhead(plain, tracedRes)
	if err := half.tr.writeSpans(filepath.Join(rc.workDir, "spans-"+w.name+".jsonl")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	out := finalOutput(tracedRes, layers, layerUnits, plain)
	out.report["spans_dropped"] = half.tr.dropped
	out.report["untraced_cache_hit_ratio"] = per(float64(plain.cacheHits), float64(plain.cacheHits+plain.cacheMisses))
	return out, nil
}

// faithful gates that the traced program made the same decisions as the
// untraced one. The discovery cache must engage in both passes: a cache
// misses once per distinct request shape, so the traced pass (which is
// slower and makes fewer lookups) must not miss much more often than the
// untraced one; a finder wrapper that hid Generation would turn every
// lookup into a miss. On failure-adapt, episode 0's adaptation counts,
// cache hits and misses included, must be identical.
func faithful(plain, traced *result) error {
	if (plain.cacheHits > 0) != (traced.cacheHits > 0) || traced.cacheMisses > 2*plain.cacheMisses+16 {
		return fmt.Errorf("trace changed the program: discovery cache %d hits / %d misses untraced, %d / %d traced",
			plain.cacheHits, plain.cacheMisses, traced.cacheHits, traced.cacheMisses)
	}
	if (plain.counts == nil) != (traced.counts == nil) ||
		(plain.counts != nil && *plain.counts != *traced.counts) {
		return fmt.Errorf("trace changed the program: adaptation counts %+v untraced vs %+v traced",
			plain.counts, traced.counts)
	}
	return nil
}

// overhead is the tracing cost as a slowdown factor (1 = free): the
// traced pass's cost of a fixed unit of work over the untraced pass's.
func overhead(plain, traced *result) float64 { return per(traced.unitCost, plain.unitCost) }

// withUnits pairs each listed metric's value with its unit.
func withUnits(values map[string]float64, units ...[]unit) map[string]metric {
	ms := make(map[string]metric)
	for _, us := range units {
		for _, u := range us {
			ms[u.name] = metric{Value: values[u.name], Unit: u.unit}
		}
	}
	return ms
}

// finalOutput builds the report line and the final result line.
func finalOutput(res *result, values map[string]float64, units []unit, plain *result) *output {
	report := map[string]any{
		"error_ratio": per(float64(res.failed), float64(res.attempted)),
		"end_to_end":  withUnits(res.e2e, e2eUnits, unboundedUnits),
	}
	if res.layers != nil {
		report["per_layer_counters"] = res.layers
	}
	for k, v := range res.notes {
		report[k] = v
	}
	if plain != nil {
		report["untraced_end_to_end"] = withUnits(plain.e2e, e2eUnits, unboundedUnits)
	}
	attempted, failed := res.attempted, res.failed
	if plain != nil {
		attempted += plain.attempted
		failed += plain.failed
	}
	return &output{
		report: report,
		final: map[string]any{
			"correct":   true,
			"attempted": attempted,
			"failed":    failed,
			"metrics":   withUnits(values, units),
		},
	}
}

// errGate marks a failed correctness gate.
var errGate = errors.New("correctness gate failed")

func gatef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}

// checkCalls fails the run when any call failed unexpectedly.
func checkCalls(c *callStats) error {
	if n := c.failed.Load(); n > 0 {
		errs := c.errs()
		sort.Strings(errs)
		return gatef("%d of %d calls failed: %v", n, c.attempted.Load(), errs)
	}
	return nil
}
