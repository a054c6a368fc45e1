// Command gridsim regenerates the repository's experiments (DESIGN.md §4):
// every table and figure artifact of the paper plus the claim experiments
// C1–C5. Each experiment prints the rows the corresponding section of
// EXPERIMENTS.md records.
//
// Usage:
//
//	gridsim -experiment E56          # §5.6 worked-example timeline
//	gridsim -experiment C1           # utilization: adaptive vs static
//	gridsim -experiment C2           # failure survival: reserve vs none
//	gridsim -experiment C3           # best-effort floor
//	gridsim -experiment C4           # optimizer profit vs baselines
//	gridsim -experiment C5           # scenario-1 admission gain
//	gridsim -experiment T1|T3|T4     # the paper's XML artifacts
//	gridsim -experiment T2           # GARA API lifecycle transcript
//	gridsim -experiment F4|F6        # broker interaction transcript
//	gridsim -experiment all          # everything
//	gridsim -parallel -clients 8 -ops 10000   # concurrent stress + throughput
//	gridsim -parallel -shards 4               # same, against a 4-shard broker
//	gridsim -parallel -intake                 # admissions ride the group-commit batch path
//	gridsim -parallel -transport http         # admissions over the loopback JSON API
//	gridsim -chaos -seed 7 -faultrate 0.2     # deterministic fault-injection replay
//	gridsim -chaos -restarts 3 -seed 7        # restart chaos: kill + WAL-recover the broker mid-workload
//	gridsim -chaos -intake -seed 7            # same replays with batched admissions (still bit-identical per seed)
//	gridsim -intake-bench -json               # amortized admission cost: direct vs batched vs JSON/HTTP
//	gridsim -scenario list                    # the workload scenario catalog
//	gridsim -scenario flash-crowd -seed 7     # replay one scenario, gate on its report
//	gridsim -scenario all -soak -json         # soak every scenario, emit BENCH_scenarios.json
//	gridsim -cluster 3 -seed 7                # multi-broker cluster: placement, fallback,
//	                                          # hand-off crash drill, N=1 parity gate
//	gridsim -cluster 3 -json                  # same, emit the BENCH_cluster.json shape
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gqosm"
	"gqosm/internal/cluster"
	"gqosm/internal/gara"
	"gqosm/internal/obs"
	"gqosm/internal/resource"
	"gqosm/internal/shadow"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gridsim", flag.ContinueOnError)
	var (
		experiment  = fs.String("experiment", "all", "experiment id (E56, C1..C5, T1..T4, F4, F6, all)")
		seed        = fs.Int64("seed", 2003, "workload seed")
		verbose     = fs.Bool("v", false, "include broker activity logs")
		parallel    = fs.Bool("parallel", false, "run the concurrent admission stress instead of an experiment")
		clients     = fs.Int("clients", 8, "clients for -parallel/-chaos")
		ops         = fs.Int("ops", 10000, "total lifecycle operations for -parallel/-chaos")
		phases      = fs.Int("phases", 10, "quiesce points for -parallel/-chaos")
		shards      = fs.Int("shards", 1, "broker shards for -parallel/-chaos (the -parallel serial baseline stays monolithic)")
		jsonOut     = fs.Bool("json", false, "emit -parallel/-chaos results as JSON")
		chaos       = fs.Bool("chaos", false, "replay the stress workload under deterministic fault injection")
		faultRate   = fs.Float64("faultrate", 0.2, "per-site fault injection probability for -chaos")
		restarts    = fs.Int("restarts", 0, "with -chaos: kill and WAL-recover the broker this many times mid-workload")
		walDir      = fs.String("wal-dir", "", "WAL directory for -chaos -restarts (default: a temporary one)")
		cache       = fs.String("cache", "on", "hot-path caches for -parallel/-chaos: on|off")
		intake      = fs.Bool("intake", false, "route admissions through the group-commit intake for -parallel/-chaos runs")
		transport   = fs.String("transport", "", "admission transport for -parallel: empty (in-process) or http (loopback JSON API)")
		intakeBench = fs.Bool("intake-bench", false, "measure amortized admission cost: direct vs batched intake vs JSON/HTTP transport")
		scenario    = fs.String("scenario", "", "replay a workload scenario by name ('all' for every scenario, 'list' for the catalog)")
		soak        = fs.Bool("soak", false, "run -scenario in long-run soak mode: bounded working set, runtime health sampling")
		shadowPol   = fs.String("shadow", "", "with -scenario: evaluate the named candidate policy in shadow (divergence counts + counterfactual deltas, bench_shadow/v1 with -json)")
		clusterN    = fs.Int("cluster", 0, "run the multi-broker harness with N broker instances behind the front tier")
		placement   = fs.String("placement", "hash", "front-tier placement for -cluster: hash|least-loaded")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var disableCaches bool
	switch *cache {
	case "on":
	case "off":
		disableCaches = true
	default:
		return fmt.Errorf("bad -cache value %q (want on or off)", *cache)
	}
	if *intakeBench {
		return runIntakeBench(*jsonOut)
	}
	if *transport != "" && !*parallel {
		return fmt.Errorf("-transport needs -parallel (the chaos replays stay in-process for determinism)")
	}
	if *restarts > 0 && !*chaos {
		return fmt.Errorf("-restarts needs -chaos")
	}
	if *walDir != "" && *restarts == 0 {
		return fmt.Errorf("-wal-dir needs -chaos -restarts (only the restart replay journals to disk)")
	}
	if *clusterN > 0 {
		// -clients doubles as the cluster workload size, but its stress
		// default (8) is far too small here: unless set explicitly, the
		// cluster harness drives the acceptance-scale 10⁵ clients.
		nClients := 100000
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "clients" {
				nClients = *clients
			}
		})
		return runCluster(*clusterN, nClients, *shards, *seed, *placement, *jsonOut)
	}
	if *scenario != "" {
		if *shadowPol != "" {
			if *soak {
				return fmt.Errorf("-shadow and -soak are mutually exclusive (the shadow lab replays each scenario three times itself)")
			}
			return runShadow(*scenario, *shadowPol, *seed, *ops, *shards, *jsonOut)
		}
		return runScenarios(*scenario, *soak, *seed, *ops, *shards, *jsonOut)
	}
	if *shadowPol != "" {
		return fmt.Errorf("-shadow needs -scenario")
	}
	if *soak {
		return fmt.Errorf("-soak needs -scenario")
	}
	if *chaos || *parallel {
		cfg := sim.StressConfig{Clients: *clients, Ops: *ops, Phases: *phases, Seed: *seed, Shards: *shards,
			DisableCaches: disableCaches, Intake: *intake, Transport: *transport}
		if *chaos {
			cfg.FaultRate, cfg.Restarts, cfg.WALDir = *faultRate, *restarts, *walDir
		}
		return runStress(cfg, !*chaos, *jsonOut)
	}

	runners := map[string]func(int64, bool) error{
		"E56": runE56,
		"C1":  runC1,
		"C2":  runC2,
		"C3":  runC3,
		"C4":  runC4,
		"C5":  runC5,
		"T1":  runT1,
		"T2":  runT2,
		"T3":  runT3,
		"T4":  runT4,
		"F4":  runF4,
		"F6":  runF6,
	}
	id := strings.ToUpper(*experiment)
	if id == "ALL" {
		for _, key := range []string{"T1", "T2", "T3", "T4", "F4", "F6", "E56", "C1", "C2", "C3", "C4", "C5"} {
			if err := runners[key](*seed, *verbose); err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
		}
		return nil
	}
	r, ok := runners[id]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return r(*seed, *verbose)
}

// runStress drives the stress workload (sim.RunStress). With baseline
// (gridsim -parallel) it first runs a one-client, in-process, unsharded
// baseline over the same total work and reports both runs, keyed
// "serial" and "parallel": the shape recorded in BENCH_parallel.json.
// Otherwise it reports the one run: the shape recorded in
// BENCH_chaos.json and BENCH_recovery.json. Each run has its own
// metrics registry. Every report is emitted before the gates —
// invariant_violations == 0, capacity_restored, and digest_matches ==
// restarts — so CI always has it; see README.md "Stress artifact".
func runStress(cfg sim.StressConfig, baseline, jsonOut bool) error {
	cfg.Obs = obs.NewRegistry()
	names := []string{"stress"}
	reports := map[string]*sim.StressReport{}
	if baseline {
		names = []string{"serial", "parallel"}
		serial, err := sim.RunStress(sim.StressConfig{Clients: 1, Ops: cfg.Ops, Phases: cfg.Phases,
			Seed: cfg.Seed, DisableCaches: cfg.DisableCaches})
		if err != nil {
			return fmt.Errorf("serial baseline: %w", err)
		}
		reports["serial"] = serial
	}
	name := names[len(names)-1]
	rep, err := sim.RunStress(cfg)
	if err != nil {
		return fmt.Errorf("%s run: %w", name, err)
	}
	reports[name] = rep

	if jsonOut {
		var v any = rep
		if baseline {
			v = reports
		}
		out, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		header("STRESS", "client-schedule stress workload")
		for _, name := range names {
			printStress(name, reports[name])
		}
	}
	for _, name := range names {
		r := reports[name]
		switch {
		case r.InvariantViolations != 0:
			return fmt.Errorf("%s run found %d invariant violation(s): %v", name, r.InvariantViolations, r.Violations)
		case !r.CapacityRestored:
			return fmt.Errorf("%s run: capacity not restored after drain", name)
		case r.StressRestarts != nil && r.DigestMatches != r.Restarts:
			return fmt.Errorf("%s run: %d/%d recoveries matched the pre-kill digest", name, r.DigestMatches, r.Restarts)
		}
	}
	if !jsonOut {
		fmt.Println("\nall invariant checks passed; no capacity lost or double-spent")
		fmt.Printf("\n%s-run metrics snapshot:\n", name)
		return cfg.Obs.WritePrometheus(os.Stdout)
	}
	return nil
}

// printStress is the text form of one stress report.
func printStress(name string, r *sim.StressReport) {
	fmt.Printf("%-9s clients=%-3d shards=%-2d ops=%-6d requested=%-5d admitted=%-5d (%.1f%%) terminated=%-5d checks=%d violations=%d\n",
		name, r.Clients, r.Shards, r.Ops, r.Requested, r.Admitted, 100*r.AdmitRate, r.Terminated,
		r.Checks, r.InvariantViolations)
	fmt.Printf("%-9s %8.0f ops/s, admission latency p50=%.4fms p95=%.4fms p99=%.4fms over %.1fms\n",
		"", r.Wall.OpsPerSec, r.Wall.AdmitP50MS, r.Wall.AdmitP95MS, r.Wall.AdmitP99MS, r.Wall.ElapsedMS)
	fmt.Printf("%-9s degradations=%d restorations=%d reconciled cancels=%d capacity restored=%v\n",
		"", r.Degradations, r.Restorations, r.ReconciledCancels, r.CapacityRestored)
	if r.CacheHitRate > 0 {
		fmt.Printf("%-9s discovery cache hit rate %.1f%%\n", "", r.CacheHitRate*100)
	}
	if r.Intake {
		fmt.Printf("%-9s intake: mean batch %.2f admissions/flush\n", "", r.IntakeBatchMean)
	}
	if r.Transport != "" {
		fmt.Printf("%-9s transport: %s\n", "", r.Transport)
	}
	if r.Shards > 1 {
		fmt.Printf("%-9s shard sessions=%v load=%v\n", "", r.ShardSessions, r.ShardUtilization)
	}
	if f := r.StressFaults; f != nil {
		fmt.Printf("%-9s faults: rate=%.2f injected=%d by kind=%v virtual p95=%.1fms retries=%d timeouts=%d unavailable=%d\n",
			"", f.FaultRate, f.FaultsInjected, f.FaultsByKind, f.VirtualP95MS, f.Retries, f.Timeouts, f.Unavailable)
	}
	if x := r.StressRestarts; x != nil {
		fmt.Printf("%-9s restarts: digest matches=%d/%d replayed=%d records, snapshots at %v, recovery p95=%.2fms\n",
			"", x.DigestMatches, x.Restarts, x.ReplayedRecords, x.SnapshotSeqs, r.Wall.RecoveryP95MS)
		fmt.Printf("%-9s reconcile: adopted=%d refunded=%d parked cleared=%d; WAL records=%d snapshots=%d\n",
			"", x.Adopted, x.Refunded, x.ParkedCleared, x.WALRecords, x.WALSnapshots)
	}
}

// runCluster drives the multi-broker harness (sim.RunClusterSim): the
// N-broker run, a 1-broker baseline over the SAME workload, the N=1 vs
// N=N outcome-parity comparison, and — for N > 1 — the hand-off crash
// drill (sim.RunHandoffCrash). The JSON form is the shape recorded in
// BENCH_cluster.json (see README.md "Cluster artifact"); CI gates on
// invariant_violations == 0 in both runs, parity == true, and
// handoff.single_owner == true.
func runCluster(brokers, clients, shards int, seed int64, placementStr string, jsonOut bool) error {
	place, err := cluster.ParsePlacement(placementStr)
	if err != nil {
		return err
	}
	scale, err := sim.RunClusterSim(sim.ClusterSimConfig{
		Brokers: brokers, Clients: clients, Seed: seed, Placement: place, Shards: shards,
	})
	if err != nil {
		return fmt.Errorf("cluster run: %w", err)
	}
	baseline, err := sim.RunClusterSim(sim.ClusterSimConfig{
		Brokers: 1, Clients: clients, Seed: seed, Placement: place, Shards: shards,
	})
	if err != nil {
		return fmt.Errorf("single-broker baseline: %w", err)
	}
	parity := scale.OutcomeDigest == baseline.OutcomeDigest

	var handoff *sim.HandoffCrashResult
	if brokers > 1 {
		handoff, err = sim.RunHandoffCrash(sim.HandoffCrashConfig{Brokers: brokers, Seed: seed})
		if err != nil {
			return fmt.Errorf("handoff crash drill: %w", err)
		}
	}

	if jsonOut {
		out, err := json.MarshalIndent(map[string]any{
			"schema":   "bench_cluster/v1",
			"scale":    scale,
			"baseline": baseline,
			"parity":   parity,
			"handoff":  handoff,
		}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		header("CLUSTER", fmt.Sprintf("%d-broker front tier vs single-broker baseline (placement %s)", brokers, scale.Placement))
		for _, row := range []struct {
			name string
			r    *sim.ClusterSimResult
		}{{"baseline", baseline}, {"cluster", scale}} {
			fmt.Printf("%-9s brokers=%-2d clients=%-7d admitted=%-7d rejected=%-6d errors=%-3d forwarded=%-6d migrations=%d/%d digest=%s\n",
				row.name, row.r.Brokers, row.r.Clients, row.r.Admitted, row.r.Rejected,
				row.r.Errors, row.r.Forwarded, row.r.Migrations, row.r.Migrations+row.r.MigrationFailures,
				row.r.OutcomeDigest)
		}
		for _, s := range scale.PerBroker {
			fmt.Printf("%-9s %-8s final sessions=%-4d load=%.3f\n", "", s.Domain, s.Sessions, s.Load)
		}
		fmt.Printf("outcome parity N=1 vs N=%d: %v\n", brokers, parity)
		if handoff != nil {
			fmt.Printf("handoff drill: %s %s->%s single_owner=%v owner=%s completed=%d aborted=%d resolved=%d\n",
				handoff.MigratedID, handoff.Source, handoff.Target, handoff.SingleOwner,
				handoff.OwnerDomain, handoff.Completed, handoff.Aborted, handoff.HandoffsResolved)
		}
		fmt.Printf("invariant checks=%d violations=%d (baseline %d)\n",
			scale.Checks, scale.InvariantViolations, baseline.InvariantViolations)
	}

	if scale.InvariantViolations != 0 {
		return fmt.Errorf("cluster run found %d invariant violation(s): %v",
			scale.InvariantViolations, scale.Violations)
	}
	if baseline.InvariantViolations != 0 {
		return fmt.Errorf("baseline run found %d invariant violation(s): %v",
			baseline.InvariantViolations, baseline.Violations)
	}
	if !parity {
		return fmt.Errorf("outcome parity broken: N=1 digest %s vs N=%d digest %s",
			baseline.OutcomeDigest, brokers, scale.OutcomeDigest)
	}
	if handoff != nil {
		if handoff.InvariantViolations != 0 {
			return fmt.Errorf("handoff drill found %d invariant violation(s): %v",
				handoff.InvariantViolations, handoff.Violations)
		}
		if !handoff.SingleOwner {
			return fmt.Errorf("handoff drill: %d owner(s) for %s after recovery, want exactly one on %s",
				handoff.Owners, handoff.MigratedID, handoff.Target)
		}
	}
	return nil
}

// runScenarios replays one scenario (or all of them) and gates on the
// reports: any oracle violation, failed scenario assertion, or — in soak
// mode — instability verdict exits non-zero, after the report has been
// emitted so CI always has an artifact. The -json form of `-scenario
// all` is the shape recorded in BENCH_scenarios.json (see README.md
// "Scenario artifact"): an object keyed by scenario name. Only the
// "latency" and "soak" blocks are wall-clock derived; everything else is
// byte-identical per (scenario, seed, shards, ops).
func runScenarios(name string, soak bool, seed int64, ops, shards int, jsonOut bool) error {
	if name == "list" {
		header("SCENARIOS", "workload scenario catalog")
		for _, sc := range sim.Scenarios() {
			fmt.Printf("%-12s %s\n", sc.Name, sc.About)
		}
		return nil
	}
	var list []sim.Scenario
	if name == "all" {
		list = sim.Scenarios()
	} else {
		sc, ok := sim.LookupScenario(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (try -scenario list)", name)
		}
		list = []sim.Scenario{sc}
	}

	cfg := sim.ScenarioConfig{Seed: seed, Ops: ops, Shards: shards}
	reports := make(map[string]any, len(list))
	var failures []string
	for _, sc := range list {
		var (
			rep    any
			failed bool
			err    error
		)
		if soak {
			var r *sim.SoakReport
			r, err = sim.RunSoak(sc, sim.SoakConfig{ScenarioConfig: cfg})
			rep, failed = r, r != nil && r.Failed()
		} else {
			var r *sim.ScenarioReport
			r, err = sim.RunScenario(sc, cfg)
			rep, failed = r, r != nil && r.Failed()
		}
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		reports[sc.Name] = rep
		if failed {
			failures = append(failures, sc.Name)
		}
	}

	if jsonOut {
		var out []byte
		var err error
		if name == "all" {
			out, err = json.MarshalIndent(reports, "", "  ")
		} else {
			out, err = json.MarshalIndent(reports[list[0].Name], "", "  ")
		}
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		mode := "scenario"
		if soak {
			mode = "soak"
		}
		header("SCENARIO", fmt.Sprintf("workload %s replay (seed %d, ops %d, shards %d)", mode, seed, ops, shards))
		for _, sc := range list {
			switch r := reports[sc.Name].(type) {
			case *sim.ScenarioReport:
				printScenarioSummary(r)
			case *sim.SoakReport:
				printScenarioSummary(&r.ScenarioReport)
				s := r.Soak
				fmt.Printf("%-12s soak: windows=%d goroutines=%d->%d heap=%d->%d bytes p99 %.3f->%.3fms stable=%v\n",
					"", len(s.Windows), s.GoroutinesStart, s.GoroutinesMax,
					s.HeapBaseBytes, s.HeapMaxBytes, s.P99FirstHalfMS, s.P99LastHalfMS, s.Stable)
				for _, p := range s.Problems {
					fmt.Printf("%-12s   problem: %s\n", "", p)
				}
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("scenario(s) failed their gates: %s", strings.Join(failures, ", "))
	}
	return nil
}

// runShadow is the policy lab's CLI: it evaluates a registered candidate
// policy over the chosen scenarios (shadow.Run replays each one three
// times — active, active+shadow, counterfactual) and emits the
// bench_shadow/v1 report. The report contains no wall-clock fields, so
// -json output is byte-identical per (candidate, seed, ops, shards). A
// non-ok verdict exits non-zero AFTER emitting so CI always has the
// report to gate on.
func runShadow(name, candidate string, seed int64, ops, shards int, jsonOut bool) error {
	var list []sim.Scenario
	if name == "all" {
		list = sim.Scenarios()
	} else {
		sc, ok := sim.LookupScenario(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (try -scenario list)", name)
		}
		list = []sim.Scenario{sc}
	}
	rep, err := shadow.Run(list, shadow.Config{Candidate: candidate, Seed: seed, Ops: ops, Shards: shards})
	if err != nil {
		return err
	}
	if jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		header("SHADOW", fmt.Sprintf("policy lab: candidate %q vs active \"paper\" (seed %d, ops %d, shards %d)", candidate, seed, ops, shards))
		for _, sc := range list {
			sr := rep.Scenarios[sc.Name]
			fmt.Printf("%-12s evals=%-6d diverged partition=%d optimize=%d ladder=%d placement=%d shadow_clean=%v\n",
				sc.Name, sr.Evaluations,
				sr.Divergence["partition"], sr.Divergence["optimize"], sr.Divergence["ladder"], sr.Divergence["placement"],
				sr.ShadowClean)
			fmt.Printf("%-12s   counterfactual: admit %.3f->%.3f (%+.3f) revenue %.2f->%.2f (%+.2f) util %.3f->%.3f (%+.3f) verdict=%s\n",
				"", sr.AdmitRate.Active, sr.AdmitRate.Candidate, sr.AdmitRate.Delta,
				sr.Revenue.Active, sr.Revenue.Candidate, sr.Revenue.Delta,
				sr.Utilization.Active, sr.Utilization.Candidate, sr.Utilization.Delta, sr.Verdict)
			for _, v := range sr.Violations {
				fmt.Printf("%-12s   violation: %s\n", "", v)
			}
		}
	}
	if rep.Failed() {
		return fmt.Errorf("shadow evaluation verdict %q (candidate %s)", rep.Verdict, candidate)
	}
	return nil
}

func printScenarioSummary(r *sim.ScenarioReport) {
	fmt.Printf("%-12s arrivals=%-6d ops=%-7d admitted=%d/%d (%.1f%%) expired=%d reneg=%d/%d degraded=%d restored=%d revenue=%.2f checks=%d violations=%d verify_errors=%d\n",
		r.Scenario, r.Arrivals, r.Ops, r.Admitted, r.Requested, 100*r.AdmitRate,
		r.ExpiredOffers, r.Renegotiations-r.RenegFailures, r.Renegotiations,
		r.Degradations, r.Restorations, r.Revenue, r.Checks, r.InvariantViolations, len(r.VerifyErrors))
	for _, v := range r.Violations {
		fmt.Printf("%-12s   violation: %s\n", "", v)
	}
	for _, e := range r.VerifyErrors {
		fmt.Printf("%-12s   verify: %s\n", "", e)
	}
}

func header(id, title string) {
	fmt.Printf("\n=== %s — %s ===\n\n", id, title)
}

func runE56(_ int64, verbose bool) error {
	header("E56", "§5.6 worked example: composite SLA, failure at t2, recovery at t3")
	res, err := sim.RunE56()
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	fmt.Printf("\nnetwork sub-SLAs whole until expiry: %v\n", res.NetworkOK)
	fmt.Printf("best-effort preemptions during failure: %d\n", res.Preemptions)
	if verbose {
		fmt.Println("\nbroker activity log:")
		for _, line := range res.Log {
			fmt.Println("  " + line)
		}
	}
	return nil
}

func runC1(seed int64, _ bool) error {
	header("C1", "utilization & admission: adaptive borrowing vs rigid partition")
	rows, err := sim.RunC1(seed, nil)
	if err != nil {
		return err
	}
	fmt.Print(sim.FormatC1(rows))
	return nil
}

func runC2(seed int64, _ bool) error {
	header("C2", "guarantee survival under failures: adaptive reserve vs no reserve")
	rows, err := sim.RunC2(seed, nil)
	if err != nil {
		return err
	}
	fmt.Print(sim.FormatC2(rows))
	return nil
}

func runC3(seed int64, _ bool) error {
	header("C3", "best-effort minimum capacity under guaranteed saturation")
	rows, err := sim.RunC3(seed)
	if err != nil {
		return err
	}
	fmt.Print(sim.FormatC3(rows))
	return nil
}

func runC4(seed int64, _ bool) error {
	header("C4", "optimizer profit: greedy vs exact vs first-fit vs minimum")
	rows, err := sim.RunC4(seed, nil)
	if err != nil {
		return err
	}
	fmt.Print(sim.FormatC4(rows))
	return nil
}

func runC5(seed int64, _ bool) error {
	header("C5", "scenario-1 compensation: admissions vs willingness to degrade")
	rows, err := sim.RunC5(seed, nil)
	if err != nil {
		return err
	}
	fmt.Print(sim.FormatC5(rows))
	return nil
}

func runT1(_ int64, _ bool) error {
	header("T1", "Table 1 — SLA resource portion relayed to resource managers")
	spec := gqosm.NewSpec(
		gqosm.Exact(gqosm.CPU, 4),
		gqosm.Exact(gqosm.MemoryMB, 64),
		gqosm.Exact(gqosm.BandwidthMbps, 10),
	)
	spec.SourceIP = "192.200.168.33"
	spec.DestIP = "135.200.50.101"
	spec.MaxPacketLossPct = 10
	doc := sla.EncodeServiceSpecific(spec, resource.Capacity{CPU: 4, MemoryMB: 64, BandwidthMbps: 10})
	out, err := sla.MarshalIndent(doc)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func runT2(_ int64, _ bool) error {
	header("T2", "Table 2 — GARA reservation primitives, lifecycle transcript")
	stack, err := newPaperStack()
	if err != nil {
		return err
	}
	defer stack.Close()
	now := stack.Clock.Now()
	req := `&(reservation-type="compute")(count=10)(memory=2048)(disk=15)`
	handle, err := stack.GARA.Create(req, now, now.Add(5*time.Hour), "demo")
	if err != nil {
		return err
	}
	fmt.Printf("globus_gara_reservation_create(%q)\n  -> handle %s\n", req, handle)
	if err := stack.GARA.Bind(handle, gara.BindParam{PID: 4242}); err != nil {
		return err
	}
	fmt.Printf("globus_gara_reservation_bind(%s, pid=4242)\n  -> claimed\n", handle)
	if err := stack.GARA.Unbind(handle); err != nil {
		return err
	}
	fmt.Printf("globus_gara_reservation_unbind(%s)\n  -> reserved\n", handle)
	if err := stack.GARA.Cancel(handle); err != nil {
		return err
	}
	fmt.Printf("globus_gara_reservation_cancel(%s)\n  -> released\n", handle)
	return nil
}

func runT3(_ int64, _ bool) error {
	header("T3", "Table 3 — SLA conformance test reply (QoS_Levels)")
	res, err := withLifecycleSession(func(stack *gqosm.Stack, id gqosm.SLAID) (any, error) {
		rep, err := stack.Broker.Verify(id)
		if err != nil {
			return nil, err
		}
		return sla.MarshalIndent(rep.XML)
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res.([]byte)))
	return nil
}

func runT4(_ int64, _ bool) error {
	header("T4", "Table 4 — negotiated SLA with adaptation options")
	stack, err := newPaperStack()
	if err != nil {
		return err
	}
	defer stack.Close()
	now := stack.Clock.Now()
	offer, err := stack.Broker.RequestService(gqosm.Request{
		Service: "simulation",
		Client:  "controlled-client",
		Class:   gqosm.ClassControlledLoad,
		Spec: gqosm.NewSpec(
			gqosm.Range(gqosm.CPU, 10, 15),
			gqosm.Range(gqosm.MemoryMB, 48, 64),
		),
		Start:             now,
		End:               now.Add(5 * time.Hour),
		AcceptDegradation: true,
		PromotionOptIn:    true,
	})
	if err != nil {
		return err
	}
	out, err := sla.MarshalIndent(sla.EncodeDocument(offer.SLA))
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func runF4(_ int64, _ bool) error {
	header("F4", "Fig. 4 — the five QoS management phases in one session")
	_, err := withLifecycleSession(func(stack *gqosm.Stack, id gqosm.SLAID) (any, error) {
		// Degrade by failing capacity, then recover (phases 3–5).
		stack.Broker.NotifyFailure(gqosm.Nodes(3))
		if _, err := stack.Broker.Verify(id); err != nil {
			return nil, err
		}
		stack.Broker.NotifyFailure(gqosm.Capacity{})
		if err := stack.Broker.Terminate(id, "session complete"); err != nil {
			return nil, err
		}
		for _, e := range stack.Broker.Events() {
			fmt.Println("  " + e.String())
		}
		return nil, nil
	})
	return err
}

func runF6(_ int64, _ bool) error {
	header("F6", "Figs. 6–7 — broker activity and client transcript")
	stack, err := newPaperStack()
	if err != nil {
		return err
	}
	defer stack.Close()
	now := stack.Clock.Now()
	offer, err := stack.Broker.RequestService(gqosm.Request{
		Service: "simulation", Client: "fig7-client", Class: gqosm.ClassGuaranteed,
		Spec:  gqosm.NewSpec(gqosm.Exact(gqosm.CPU, 10), gqosm.Exact(gqosm.MemoryMB, 2048), gqosm.Exact(gqosm.DiskGB, 15)),
		Start: now, End: now.Add(5 * time.Hour),
	})
	if err != nil {
		return err
	}
	fmt.Printf("client> service_request (10 CPU, 2048 MB, 15 GB)\n")
	fmt.Printf("aqos > service_offer: SLA %s at price %.2f\n", offer.SLA.ID, offer.Price)
	if err := stack.Broker.Accept(offer.SLA.ID); err != nil {
		return err
	}
	fmt.Printf("client> accept %s\n", offer.SLA.ID)
	if _, err := stack.Broker.Invoke(offer.SLA.ID); err != nil {
		return err
	}
	rep, err := stack.Broker.Verify(offer.SLA.ID)
	if err != nil {
		return err
	}
	fmt.Printf("client> verify %s\naqos > conforms=%v\n\nbroker activity log:\n", offer.SLA.ID, rep.Conforms)
	for _, e := range stack.Broker.Events() {
		fmt.Println("  " + e.String())
	}
	return nil
}

// newPaperStack builds the §5.6-sized stack on a manual clock.
func newPaperStack() (*gqosm.Stack, error) {
	return gqosm.NewStack(gqosm.StackConfig{
		Domain: "site-a",
		Clock:  gqosm.NewManualClock(sim.Epoch),
		Plan: gqosm.CapacityPlan{
			Guaranteed: gqosm.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120},
			Adaptive:   gqosm.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40},
			BestEffort: gqosm.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40},
		},
		ConfirmWindow: time.Hour,
	})
}

// withLifecycleSession establishes and invokes a standard guaranteed
// session, then hands it to f.
func withLifecycleSession(f func(*gqosm.Stack, gqosm.SLAID) (any, error)) (any, error) {
	stack, err := newPaperStack()
	if err != nil {
		return nil, err
	}
	defer stack.Close()
	now := stack.Clock.Now()
	offer, err := stack.Broker.RequestService(gqosm.Request{
		Service: "simulation", Client: "lifecycle", Class: gqosm.ClassGuaranteed,
		Spec:  gqosm.NewSpec(gqosm.Exact(gqosm.CPU, 10), gqosm.Exact(gqosm.MemoryMB, 2048), gqosm.Exact(gqosm.DiskGB, 15)),
		Start: now, End: now.Add(5 * time.Hour),
	})
	if err != nil {
		return nil, err
	}
	if err := stack.Broker.Accept(offer.SLA.ID); err != nil {
		return nil, err
	}
	if _, err := stack.Broker.Invoke(offer.SLA.ID); err != nil {
		return nil, err
	}
	return f(stack, offer.SLA.ID)
}
