package sim

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"gqosm/internal/invariant"
	"gqosm/internal/obs"
)

// stress runs RunStress and fails the test on a harness error, an oracle
// violation or lost capacity.
func stress(t *testing.T, cfg StressConfig) *StressReport {
	t.Helper()
	res, err := RunStress(cfg)
	if err != nil {
		t.Fatalf("RunStress(%+v): %v", cfg, err)
	}
	if res.InvariantViolations != 0 {
		t.Fatalf("%d invariant violation(s):\n%v", res.InvariantViolations, res.Violations)
	}
	if !res.CapacityRestored {
		t.Fatal("capacity not restored after drain")
	}
	return res
}

// deterministic marshals a report without its wall-clock block.
func deterministic(t *testing.T, res *StressReport) string {
	t.Helper()
	c := *res
	c.Wall = StressWall{}
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunParallelSmoke runs a small goroutine stress and expects a clean
// bill of health at every quiesce point and an exact capacity drain.
func TestRunParallelSmoke(t *testing.T) {
	res := stress(t, StressConfig{Clients: 4, Ops: 400, Phases: 4, Seed: 7})
	if res.Checks != 5 { // 4 phase quiesces + post-drain
		t.Fatalf("checks = %d, want 5", res.Checks)
	}
	if res.Requested == 0 || res.Admitted == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
}

// TestRunParallelDeterministicSchedules confirms two goroutine runs with
// the same seed issue the same number of requests (the per-client
// schedules are deterministic even though the interleaving is not).
func TestRunParallelDeterministicSchedules(t *testing.T) {
	cfg := StressConfig{Clients: 2, Ops: 200, Phases: 2, Seed: 42}
	a, b := stress(t, cfg), stress(t, cfg)
	if a.Requested != b.Requested {
		t.Fatalf("request schedule not deterministic: %d vs %d", a.Requested, b.Requested)
	}
}

// TestRunParallelReportSchema pins the bench_stress/v1 shape: flat
// snake_case deterministic fields, every wall-clock value under "wall"
// (no raw-nanosecond field anywhere), and the fault and restart blocks
// omitted when those perturbations are off.
func TestRunParallelReportSchema(t *testing.T) {
	res := stress(t, StressConfig{Clients: 4, Ops: 400, Phases: 4, Seed: 7})
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["schema"] != "bench_stress/v1" {
		t.Errorf("schema = %v", m["schema"])
	}
	for key := range m {
		if key != strings.ToLower(key) {
			t.Errorf("key %q is not snake_case", key)
		}
	}
	for _, key := range []string{"fault_rate", "faults_injected", "restarts", "digest_matches", "recovery_p95_ms"} {
		if _, ok := m[key]; ok {
			t.Errorf("unperturbed run emits %q", key)
		}
	}
	wall, ok := m["wall"].(map[string]any)
	if !ok {
		t.Fatalf("report lacks the wall block: %s", raw)
	}
	for _, key := range []string{"elapsed_ms", "ops_per_sec", "admit_p50_ms", "admit_p95_ms", "admit_p99_ms"} {
		v, ok := wall[key].(float64)
		if !ok {
			t.Fatalf("wall lacks numeric %q: %s", key, raw)
		}
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("wall.%s = %v, want a positive finite value", key, v)
		}
	}
	if _, ok := wall["recovery_p95_ms"]; ok {
		t.Error("run without restarts emits wall.recovery_p95_ms")
	}
	w := res.Wall
	if w.AdmitP50MS > w.AdmitP95MS || w.AdmitP95MS > w.AdmitP99MS {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v", w.AdmitP50MS, w.AdmitP95MS, w.AdmitP99MS)
	}
}

// TestRunParallelSharedRegistry verifies a caller-supplied registry
// receives the run's broker metrics and serves them in exposition format.
func TestRunParallelSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	res := stress(t, StressConfig{Clients: 2, Ops: 200, Phases: 2, Seed: 3, Obs: reg})
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "gqosm_broker_admission_seconds_count") {
		t.Errorf("exposition lacks admission histogram:\n%s", text)
	}
	if !strings.Contains(text, `gqosm_broker_lifecycle_total{event="accept"}`) {
		t.Errorf("exposition lacks accept counter:\n%s", text)
	}
	if res.Admitted == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
}

func TestRunChaosDeterministic(t *testing.T) {
	cfg := StressConfig{Seed: 7, FaultRate: 0.2, Ops: 2000, Shards: 2}
	r1 := stress(t, cfg)
	d1, d2 := deterministic(t, r1), deterministic(t, stress(t, cfg))
	if d1 != d2 {
		t.Fatalf("same seed produced different reports:\n%s\n%s", d1, d2)
	}
	if r1.FaultsInjected == 0 {
		t.Fatal("no faults injected at rate 0.2")
	}
	if r1.StressRestarts != nil {
		t.Fatal("fault-only run carries a restart block")
	}

	// A different seed must explore a different schedule.
	if d3 := deterministic(t, stress(t, StressConfig{Seed: 8, FaultRate: 0.2, Ops: 2000, Shards: 2})); d1 == d3 {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestRunChaosZeroViolationsAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		for _, shards := range []int{1, 4} {
			// stress fails on any violation or lost capacity.
			res := stress(t, StressConfig{Seed: seed, FaultRate: 0.25, Ops: 1500, Shards: shards})
			if res.Checks != 11 { // 10 phase barriers + post-drain
				t.Errorf("seed %d shards %d: checks = %d, want 11", seed, shards, res.Checks)
			}
		}
	}
}

func TestRunChaosExercisesRetryBudget(t *testing.T) {
	res := stress(t, StressConfig{Seed: 11, FaultRate: 0.4, Ops: 2000})
	if res.Retries == 0 {
		t.Error("fault rate 0.4 produced no retries")
	}
	if res.Admitted == 0 {
		t.Error("nothing admitted under chaos — retry layer not absorbing faults")
	}
	if res.FaultsByKind["partial"] == 0 || res.FaultsByKind["error"] == 0 {
		t.Errorf("fault mix not exercised: %v", res.FaultsByKind)
	}
}

// TestRestartChaosDeterministicAndClean: zero oracle violations, every
// recovery digest-identical to the broker it replaced, capacity fully
// restored at drain, and the whole report minus its wall block
// byte-identical across two runs of the same seed.
func TestRestartChaosDeterministicAndClean(t *testing.T) {
	run := func() *StressReport {
		return stress(t, StressConfig{Seed: 7, Ops: 1600, FaultRate: 0.1, Restarts: 3, WALDir: t.TempDir()})
	}
	a := run()
	if a.DigestMatches != a.Restarts {
		t.Fatalf("digest matches = %d, want %d", a.DigestMatches, a.Restarts)
	}
	if a.ReplayedRecords == 0 {
		t.Fatal("no WAL records replayed — the run never exercised recovery")
	}
	if a.Checks != 10+2*3+1 { // phase barriers, pre-kill + post-recovery per restart, post-drain
		t.Fatalf("checks = %d, want 17", a.Checks)
	}
	if da, db := deterministic(t, a), deterministic(t, run()); da != db {
		t.Fatalf("same-seed reports differ:\n a: %s\n b: %s", da, db)
	}
}

// TestRestartChaosShardedSeeds mirrors the CI matrix cells at small
// scale: both shard counts stay violation-free, with and without the
// batched intake.
func TestRestartChaosShardedSeeds(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, intake := range []bool{false, true} {
			res := stress(t, StressConfig{Seed: 1, Ops: 800, FaultRate: 0.1, Restarts: 2, Shards: shards,
				Intake: intake, WALDir: t.TempDir()})
			if res.DigestMatches != res.Restarts {
				t.Fatalf("shards=%d intake=%v: digest matches = %d, want %d",
					shards, intake, res.DigestMatches, res.Restarts)
			}
		}
	}
}

// TestStressRestartsWithoutFaults composes restarts alone: a durable
// broker, no injector, serial order, every recovery digest-identical.
func TestStressRestartsWithoutFaults(t *testing.T) {
	res := stress(t, StressConfig{Seed: 3, Ops: 800, Restarts: 2})
	if res.StressFaults != nil {
		t.Fatal("restart-only run carries a fault block")
	}
	if res.DigestMatches != 2 || res.Wall.RecoveryP95MS <= 0 {
		t.Fatalf("digest matches = %d, recovery p95 = %v", res.DigestMatches, res.Wall.RecoveryP95MS)
	}
	if again := stress(t, StressConfig{Seed: 3, Ops: 800, Restarts: 2}); deterministic(t, res) != deterministic(t, again) {
		t.Fatal("restart-only run is not deterministic")
	}
}

// TestStressFewRoundsStillKills: a run too short for its kill spacing
// is stretched so every requested restart happens.
func TestStressFewRoundsStillKills(t *testing.T) {
	res := stress(t, StressConfig{Clients: 2, Ops: 2, Phases: 2, Seed: 5, Restarts: 3})
	if res.DigestMatches != 3 {
		t.Fatalf("digest matches = %d, want 3", res.DigestMatches)
	}
}

// TestStressIntakeAndTransport composes the admission-path
// perturbations with goroutine clients: batched SubmitWait, and POSTs
// to a loopback JSON-API server that itself routes through the intake.
func TestStressIntakeAndTransport(t *testing.T) {
	batched := stress(t, StressConfig{Clients: 4, Ops: 400, Phases: 2, Seed: 9, Intake: true})
	if !batched.Intake || batched.IntakeBatchMean < 1 {
		t.Fatalf("intake run: intake=%v batch mean=%v", batched.Intake, batched.IntakeBatchMean)
	}
	wire := stress(t, StressConfig{Clients: 2, Ops: 200, Phases: 2, Seed: 9, Intake: true, Transport: "http"})
	if wire.Transport != "http" || wire.Admitted == 0 {
		t.Fatalf("http run: transport=%q admitted=%d", wire.Transport, wire.Admitted)
	}
}

func TestStressRejectsBadTransport(t *testing.T) {
	for _, cfg := range []StressConfig{
		{Transport: "carrier-pigeon"},
		{Transport: "http", FaultRate: 0.2},
		{Transport: "http", Restarts: 1},
	} {
		if _, err := RunStress(cfg); err == nil {
			t.Errorf("RunStress(%+v) accepted", cfg)
		}
	}
}

// TestParallelCacheHitRate checks the cache plumbing end to end: with
// caches on (the default) a stress run reports a positive discovery
// hit rate; with DisableCaches the field stays zero and is omitted
// from the JSON.
func TestParallelCacheHitRate(t *testing.T) {
	on := stress(t, StressConfig{Clients: 4, Ops: 800, Phases: 4, Seed: 11})
	if on.CacheHitRate <= 0 {
		t.Errorf("cache-on run hit rate = %v, want > 0", on.CacheHitRate)
	}
	off := stress(t, StressConfig{Clients: 4, Ops: 800, Phases: 4, Seed: 11, DisableCaches: true})
	if off.CacheHitRate != 0 {
		t.Errorf("cache-off run hit rate = %v, want 0", off.CacheHitRate)
	}
	if strings.Contains(deterministic(t, off), "cache_hit_rate") {
		t.Error("cache_hit_rate emitted for a cache-off run; want omitted")
	}

	// Caches must not change admission outcomes. Concurrent runs have
	// nondeterministic interleaving, so the A/B comparison uses
	// single-client runs, whose schedules are pure functions of the seed.
	serialOn := stress(t, StressConfig{Clients: 1, Ops: 800, Phases: 4, Seed: 11})
	serialOff := stress(t, StressConfig{Clients: 1, Ops: 800, Phases: 4, Seed: 11, DisableCaches: true})
	if serialOn.Requested != serialOff.Requested || serialOn.Admitted != serialOff.Admitted ||
		serialOn.Terminated != serialOff.Terminated {
		t.Errorf("serial cache on/off outcome divergence: on=%d/%d/%d off=%d/%d/%d",
			serialOn.Requested, serialOn.Admitted, serialOn.Terminated,
			serialOff.Requested, serialOff.Admitted, serialOff.Terminated)
	}
}

// TestChaosDeterministicWithCaches runs the fault replay twice per
// configuration with caches on and off: each pair must be byte-identical
// outside the wall block, and the cache layer must not perturb the
// outcome.
func TestChaosDeterministicWithCaches(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := StressConfig{Clients: 4, Ops: 600, Phases: 3, Seed: 7, FaultRate: 0.2, Shards: shards}
		a, b := stress(t, cfg), stress(t, cfg)
		if da, db := deterministic(t, a), deterministic(t, b); da != db {
			t.Errorf("shards=%d chaos replay diverged:\n%s\nvs\n%s", shards, da, db)
		}
		cfg.DisableCaches = true
		off := stress(t, cfg)
		if off.CacheHitRate != 0 {
			t.Errorf("shards=%d: cache-off chaos run hit rate = %v", shards, off.CacheHitRate)
		}
		if off.Requested != a.Requested || off.Admitted != a.Admitted || off.FaultsInjected != a.FaultsInjected {
			t.Errorf("shards=%d: caches changed the chaos outcome: on=%d/%d/%d off=%d/%d/%d", shards,
				a.Requested, a.Admitted, a.FaultsInjected, off.Requested, off.Admitted, off.FaultsInjected)
		}
	}
}

// TestRecordViolationsCapsMessages: the count stays exact while the
// message list stops at maxViolationMsgs.
func TestRecordViolationsCapsMessages(t *testing.T) {
	var (
		count int
		msgs  []string
	)
	vs := make([]invariant.Violation, 15)
	for i := range vs {
		vs[i] = invariant.Violation{Rule: "r", Detail: "d"}
	}
	recordViolations(&count, &msgs, "phase 0", nil)
	recordViolations(&count, &msgs, "phase 0", &invariant.Error{Violations: vs})
	recordViolations(&count, &msgs, "phase 1", &invariant.Error{Violations: vs})
	recordViolations(&count, &msgs, "drain", errors.New("leak"))
	if count != 31 {
		t.Errorf("count = %d, want 31", count)
	}
	if len(msgs) != maxViolationMsgs {
		t.Fatalf("kept %d messages, want %d", len(msgs), maxViolationMsgs)
	}
	if msgs[0] != "phase 0: r: d" || msgs[19] != "phase 1: r: d" {
		t.Errorf("messages = %q", msgs)
	}
}
