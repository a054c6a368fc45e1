package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"gqosm/internal/sim"
)

// runCapture runs the CLI entry point and returns its stdout.
func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = orig
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestRunArgumentErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown-experiment": {"-experiment", "Z9"},
		"bad-flag":           {"-no-such-flag"},
		"bad-seed":           {"-seed", "not-a-number"},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := runCapture(t, args...); err == nil {
				t.Fatalf("args %v: expected error", args)
			}
		})
	}
}

func TestExperimentT1PrintsSLADocument(t *testing.T) {
	out, err := runCapture(t, "-experiment", "T1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "192.200.168.33", "<"} {
		if !strings.Contains(out, want) {
			t.Fatalf("T1 output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentLowercaseID(t *testing.T) {
	out, err := runCapture(t, "-experiment", "t2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "globus_gara_reservation_create") {
		t.Fatalf("t2 output:\n%s", out)
	}
}

func TestParallelModeTable(t *testing.T) {
	out, err := runCapture(t, "-parallel", "-clients", "2", "-ops", "200", "-phases", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"serial", "parallel", "ops/s", "no capacity lost",
		"admission latency p50=", "metrics snapshot:",
		"gqosm_broker_admission_seconds_count",
		`gqosm_broker_lifecycle_total{event="accept"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("parallel output missing %q:\n%s", want, out)
		}
	}
}

func TestParallelModeJSON(t *testing.T) {
	out, err := runCapture(t, "-parallel", "-clients", "2", "-ops", "200", "-phases", "2", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]*sim.StressReport
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	for _, key := range []string{"serial", "parallel"} {
		r := report[key]
		if r == nil {
			t.Fatalf("missing %q in %s", key, out)
		}
		if r.Schema != "bench_stress/v1" || r.Ops == 0 || r.Checks == 0 || !r.CapacityRestored {
			t.Fatalf("%s result degenerate: %+v", key, r)
		}
		w := r.Wall
		if w.OpsPerSec <= 0 || w.ElapsedMS <= 0 || w.AdmitP50MS <= 0 || w.AdmitP95MS <= 0 || w.AdmitP99MS <= 0 {
			t.Errorf("%s wall block not positive: %+v", key, w)
		}
	}
	if report["parallel"].Clients != 2 || report["serial"].Clients != 1 {
		t.Fatalf("client counts wrong: %+v", report)
	}
}

// stressJSON runs gridsim with args plus -json and decodes the one
// stress report.
func stressJSON(t *testing.T, args ...string) map[string]any {
	t.Helper()
	out, err := runCapture(t, append(args, "-json")...)
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	return m
}

// TestChaosCacheFlag: -cache reaches the fault replay. With caches on
// the discovery cache answers most queries; -cache off reports no hits.
func TestChaosCacheFlag(t *testing.T) {
	args := []string{"-chaos", "-seed", "7", "-ops", "800", "-phases", "4"}
	if on := stressJSON(t, args...); on["cache_hit_rate"] == nil {
		t.Fatalf("-chaos with caches on reports no cache hits: %v", on)
	}
	off := stressJSON(t, append(args, "-cache", "off")...)
	if v, ok := off["cache_hit_rate"]; ok {
		t.Fatalf("-chaos -cache off reports cache_hit_rate %v", v)
	}
	if off["phases"] != float64(4) || off["faults_injected"] == nil {
		t.Fatalf("-chaos report does not follow its flags: %v", off)
	}
}

// TestChaosRestartsJSON: -restarts composes with -phases, and the
// report carries the restart block with every recovery matching.
func TestChaosRestartsJSON(t *testing.T) {
	m := stressJSON(t, "-chaos", "-restarts", "2", "-seed", "3", "-ops", "800", "-phases", "4",
		"-wal-dir", t.TempDir())
	if m["phases"] != float64(4) || m["digest_matches"] != float64(2) || m["capacity_restored"] != true {
		t.Fatalf("restart report: %v", m)
	}
	if m["checks"] != float64(4+2*2+1) {
		t.Fatalf("checks = %v, want 9", m["checks"])
	}
}

func TestStressFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"wal-dir-without-restarts":   {"-chaos", "-wal-dir", t.TempDir()},
		"restarts-without-chaos":     {"-parallel", "-restarts", "2"},
		"transport-without-parallel": {"-chaos", "-transport", "http"},
		"bad-transport":              {"-parallel", "-transport", "smoke-signals"},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := runCapture(t, args...); err == nil {
				t.Fatalf("args %v: expected error", args)
			}
		})
	}
}

func TestScenarioList(t *testing.T) {
	out, err := runCapture(t, "-scenario", "list")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range sim.Scenarios() {
		if !strings.Contains(out, sc.Name) {
			t.Fatalf("catalog missing %q:\n%s", sc.Name, out)
		}
	}
}

func TestScenarioModeJSON(t *testing.T) {
	out, err := runCapture(t, "-scenario", "diurnal", "-seed", "1", "-ops", "2000", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var r sim.ScenarioReport
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if r.Scenario != "diurnal" || r.Seed != 1 || r.Ops == 0 || r.Checks == 0 {
		t.Fatalf("degenerate report: %+v", r)
	}
	if r.InvariantViolations != 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
}

func TestScenarioAllJSONKeyedByName(t *testing.T) {
	out, err := runCapture(t, "-scenario", "all", "-seed", "1", "-ops", "2000", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var reports map[string]*sim.ScenarioReport
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	for _, sc := range sim.Scenarios() {
		r := reports[sc.Name]
		if r == nil {
			t.Fatalf("missing %q in report map", sc.Name)
		}
		if r.Requested == 0 || r.Checks == 0 {
			t.Fatalf("%s degenerate: %+v", sc.Name, r)
		}
	}
}

func TestScenarioSoakJSON(t *testing.T) {
	out, err := runCapture(t, "-scenario", "lease-churn", "-soak", "-seed", "1", "-ops", "8000", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var r sim.SoakReport
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if r.Soak == nil || len(r.Soak.Windows) == 0 {
		t.Fatalf("soak block missing: %s", out)
	}
	if !r.Soak.Stable {
		t.Fatalf("unstable: %+v", r.Soak.Problems)
	}
}

func TestScenarioArgumentErrors(t *testing.T) {
	if _, err := runCapture(t, "-scenario", "nosuch"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := runCapture(t, "-soak"); err == nil {
		t.Fatal("-soak without -scenario accepted")
	}
}

// TestClusterFlagJSON runs a small -cluster workload end to end and
// checks the BENCH_cluster.json shape plus its two gates: N=1 parity
// and the hand-off drill's single owner.
func TestClusterFlagJSON(t *testing.T) {
	out, err := runCapture(t, "-cluster", "2", "-clients", "600", "-seed", "5", "-json")
	if err != nil {
		t.Fatalf("-cluster run: %v\n%s", err, out)
	}
	var rep struct {
		Schema  string                `json:"schema"`
		Scale   *sim.ClusterSimResult `json:"scale"`
		Parity  bool                  `json:"parity"`
		Handoff struct {
			SingleOwner bool `json:"single_owner"`
		} `json:"handoff"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if rep.Schema != "bench_cluster/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Scale == nil || rep.Scale.Brokers != 2 || rep.Scale.Clients != 600 {
		t.Errorf("scale block = %+v", rep.Scale)
	}
	if !rep.Parity {
		t.Error("parity gate failed")
	}
	if !rep.Handoff.SingleOwner {
		t.Error("handoff drill did not end with a single owner")
	}
}

func TestClusterFlagArgumentErrors(t *testing.T) {
	if _, err := runCapture(t, "-cluster", "2", "-placement", "round-robin"); err == nil {
		t.Fatal("bad -placement accepted")
	}
}
