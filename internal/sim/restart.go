package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/faultx"
	"gqosm/internal/invariant"
	"gqosm/internal/obs"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
)

// This file is the restart-chaos harness: the chaos workload run
// against a DURABLE broker that is killed and recovered from its WAL
// mid-workload. At every kill point the harness digests the live
// broker's externally observable state (sessions, allocator book,
// best-effort table, ledger aggregates), crashes it, rebuilds a
// replacement with core.Recover against the surviving substrates and
// requires the recovered digest to match the pre-kill digest exactly —
// the "recovered capacity exactly matches reality" acceptance bar. The
// workload then continues against the recovered broker. Like RunChaos,
// the run is fully deterministic per (seed, shards, ...): clients step
// serially round-robin on the manual clock, and the only
// non-deterministic field in the report is the wall-clock recovery
// time, which CI strips before diffing reports.
//
// Fault injection covers the RM substrates but NOT the WAL's own
// append/sync sites: a sealed log models a disk that died BEFORE the
// kill, so state written after the seal is legitimately unrecoverable
// and digest equality cannot hold. WAL-site faults are exercised by the
// crash-point matrix tests instead, where the oracle is coherence, not
// bit-equality.

// RestartChaosConfig sizes a RunRestartChaos run.
type RestartChaosConfig struct {
	// Clients is the number of simulated clients (default 8).
	Clients int
	// Ops is the total number of lifecycle operations (default 4000).
	Ops int
	// Restarts is how many times the broker is killed and recovered
	// mid-workload (default 3). Kill points are spaced evenly.
	Restarts int
	// Seed seeds the client schedules and the fault injector.
	Seed int64
	// FaultRate is the per-site injection probability on the RM
	// substrates (default 0.1).
	FaultRate float64
	// Plan is the Algorithm-1 partition; defaults to the §5.6 one.
	Plan core.CapacityPlan
	// Shards is the broker shard count (default 1).
	Shards int
	// SnapshotEvery is the WAL snapshot cadence in records (0 = the
	// wal package default).
	SnapshotEvery int
	// WALDir is the journal directory; empty creates (and removes) a
	// temporary one.
	WALDir string
	// Obs receives the run's metrics; nil creates a private registry.
	Obs *obs.Registry
	// Intake routes admissions through the group-commit intake, flushed
	// once per round-robin round as in RunChaos. The intake is always
	// drained before a kill point, so batched admissions are journaled
	// (one fsync per batch) before the digest is taken and recovery must
	// still reproduce the pre-kill state exactly.
	Intake bool
}

// RestartResult reports a RunRestartChaos run. Every field except
// RecoveryP95MS is deterministic for a given configuration.
type RestartResult struct {
	Seed      int64   `json:"seed"`
	FaultRate float64 `json:"fault_rate"`
	Shards    int     `json:"shards"`
	Clients   int     `json:"clients"`
	Ops       int     `json:"ops"`
	Restarts  int     `json:"restarts"`

	Requested  int `json:"requested"`
	Admitted   int `json:"admitted"`
	Terminated int `json:"terminated"`

	// Intake / IntakeBatchMean mirror ChaosResult's fields; omitted for
	// direct-path runs.
	Intake          bool    `json:"intake,omitempty"`
	IntakeBatchMean float64 `json:"intake_batch_mean,omitempty"`

	// ReplayedRecords sums WAL records replayed across all recoveries;
	// SnapshotSeqs lists each recovery's snapshot base sequence.
	ReplayedRecords int      `json:"replayed_records"`
	SnapshotSeqs    []uint64 `json:"snapshot_seqs"`
	// Adopted / Refunded / ParkedCleared sum the reconcile sweeps'
	// counters across recoveries.
	Adopted       int `json:"adopted"`
	Refunded      int `json:"refunded"`
	ParkedCleared int `json:"parked_cleared"`
	// DigestMatches counts recoveries whose post-recovery state digest
	// was byte-identical to the pre-kill digest. CI requires it to
	// equal Restarts.
	DigestMatches int `json:"digest_matches"`

	// WALRecords / WALSnapshots are the final broker's totals.
	WALRecords   int64 `json:"wal_records"`
	WALSnapshots int64 `json:"wal_snapshots"`

	// CapacityRestored is true when the final drain returned every
	// shard to its configured plan — nothing leaked or was lost across
	// all the restarts. CI gates on it.
	CapacityRestored bool `json:"capacity_restored"`

	// InvariantViolations totals oracle violations (digest mismatches
	// included); Checks counts oracle passes.
	InvariantViolations int      `json:"invariant_violations"`
	Checks              int      `json:"checks"`
	Violations          []string `json:"violations,omitempty"`

	// RecoveryP95MS is the p95 wall-clock time of core.Recover across
	// the run's restarts, in milliseconds. The ONLY non-deterministic
	// field: CI strips it before diffing reports for determinism.
	RecoveryP95MS float64 `json:"recovery_p95_ms"`
}

// restartDigest is the comparable broker-state image. Parked cancels
// are deliberately excluded: the recovery sweep clears them by design,
// so they differ across a kill legitimately.
type restartDigest struct {
	Sessions []restartSessionDigest  `json:"sessions"`
	Shards   []restartShardDigest    `json:"shards"`
	Ledger   restartLedgerDigest     `json:"ledger"`
	BERoutes map[string]restartShard `json:"be_routes"`
}

type restartShard = int

type restartSessionDigest struct {
	ID         string            `json:"id"`
	State      int               `json:"state"`
	Degraded   bool              `json:"degraded"`
	Violations int               `json:"violations"`
	Handle     string            `json:"handle"`
	Allocated  resource.Capacity `json:"allocated"`
	Original   resource.Capacity `json:"original"`
}

type restartShardDigest struct {
	Guaranteed   []string          `json:"guaranteed"`
	AvailGuar    resource.Capacity `json:"avail_guaranteed"`
	AvailBE      resource.Capacity `json:"avail_best_effort"`
	Offline      resource.Capacity `json:"offline"`
	BestEffort   []core.BEState    `json:"best_effort"`
	BENextSeq    int               `json:"be_next_seq"`
	SessionCount int               `json:"session_count"`
}

type restartLedgerDigest struct {
	Net     float64         `json:"net"`
	Totals  map[int]float64 `json:"totals"`
	Entries int             `json:"entries"`
	Evicted int64           `json:"evicted"`
}

func digestBroker(c *Cluster) (string, error) {
	b := c.Broker
	d := restartDigest{BERoutes: map[string]restartShard{}}
	docs := b.Sessions(nil)
	alloc := make(map[string]resource.Capacity, len(docs))
	for _, doc := range docs {
		alloc[string(doc.ID)] = doc.Allocated
	}
	for _, info := range b.SessionInfos() {
		d.Sessions = append(d.Sessions, restartSessionDigest{
			ID:         string(info.ID),
			State:      int(info.State),
			Degraded:   info.Degraded,
			Violations: info.Violations,
			Handle:     string(info.Handle),
			Allocated:  alloc[string(info.ID)],
		})
	}
	for _, a := range b.Allocators() {
		users := a.GuaranteedUsers()
		sort.Strings(users)
		offline, be, nextSeq := a.ExportAux()
		d.Shards = append(d.Shards, restartShardDigest{
			Guaranteed:   users,
			AvailGuar:    a.AvailableGuaranteed(),
			AvailBE:      a.AvailableBestEffort(),
			Offline:      offline,
			BestEffort:   be,
			BENextSeq:    nextSeq,
			SessionCount: len(users),
		})
	}
	b.Ledger().ExportWith(func(st pricing.State) {
		d.Ledger = restartLedgerDigest{
			Net:     st.Net,
			Totals:  map[int]float64{},
			Entries: len(st.Entries),
			Evicted: st.Evicted,
		}
		for k, v := range st.Totals {
			d.Ledger.Totals[int(k)] = v
		}
	})
	data, err := json.Marshal(d)
	return string(data), err
}

// RunRestartChaos replays the chaos workload against a durable broker,
// killing and recovering it cfg.Restarts times. A non-nil error means
// the harness itself failed; oracle violations and digest mismatches
// are reported in the result for CI to gate on.
func RunRestartChaos(cfg RestartChaosConfig) (*RestartResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 4000
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 3
	}
	if cfg.FaultRate <= 0 {
		cfg.FaultRate = 0.1
	}
	if cfg.Plan.Total().IsZero() {
		cfg.Plan = DefaultParallelPlan()
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.WALDir == "" {
		dir, err := os.MkdirTemp("", "gqosm-wal-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.WALDir = dir
	}

	clock := clockx.NewManual(Epoch)
	inj := faultx.New(cfg.Seed, clock)
	inj.SetDefault(faultx.Plan{Rate: cfg.FaultRate, CrashFor: 2 * time.Minute})
	// The WAL's own sites stay fault-free here (see the file comment).
	inj.SetPlan("wal.append", faultx.Plan{})
	inj.SetPlan("wal.sync", faultx.Plan{})

	cluster, err := NewCluster(ClusterConfig{
		Plan:     cfg.Plan,
		Shards:   cfg.Shards,
		Obs:      cfg.Obs,
		Clock:    clock,
		Faults:   inj,
		RMPolicy: core.RetryPolicy{Attempts: 3, Timeout: 2 * time.Second, Seed: cfg.Seed},
		WAL:      core.DurabilityConfig{Dir: cfg.WALDir, SnapshotEvery: cfg.SnapshotEvery},
		Intake:   core.IntakeConfig{Enabled: cfg.Intake},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	mode := admitDirect
	if cfg.Intake {
		mode = admitQueue
	}
	clients := make([]*parClient, cfg.Clients)
	for i := range clients {
		clients[i] = &parClient{
			id:         i,
			rng:        rand.New(rand.NewSource(cfg.Seed + int64(i))),
			cluster:    cluster,
			intakeMode: mode,
		}
	}
	rounds := cfg.Ops / cfg.Clients
	if rounds < cfg.Restarts+1 {
		rounds = cfg.Restarts + 1
	}
	killEvery := rounds / (cfg.Restarts + 1)
	res := &RestartResult{
		Seed: cfg.Seed, FaultRate: cfg.FaultRate, Shards: cfg.Shards,
		Clients: cfg.Clients, Ops: rounds * cfg.Clients, Restarts: cfg.Restarts,
	}

	record := func(stage string, err error) {
		if err == nil {
			return
		}
		if ie, ok := err.(*invariant.Error); ok {
			res.InvariantViolations += len(ie.Violations)
			for _, v := range ie.Violations {
				res.Violations = append(res.Violations, stage+": "+v.String())
			}
			return
		}
		res.InvariantViolations++
		res.Violations = append(res.Violations, stage+": "+err.Error())
	}

	var recoveryMS []float64
	killed := 0
	for round := 0; round < rounds; round++ {
		for _, cl := range clients {
			cl.step()
		}
		if cfg.Intake {
			// Drain the intake every round, and in particular before any
			// kill point: queued-but-unflushed admissions are not yet
			// journaled, so the digest must never see them.
			cluster.Broker.FlushIntake()
			for _, cl := range clients {
				cl.resolveTickets()
			}
		}
		if killed < cfg.Restarts && (round+1)%killEvery == 0 {
			killed++
			stage := fmt.Sprintf("restart %d", killed)

			res.Checks++
			record(stage+" pre-kill", invariant.CheckAll(cluster.Broker, clock.Now(), cluster.Pool))
			record(stage+" pre-kill", invariant.CheckIntake(cluster.Broker))
			pre, err := digestBroker(cluster)
			if err != nil {
				return res, fmt.Errorf("%s: digest: %w", stage, err)
			}

			cluster.Broker.Crash()
			start := time.Now()
			stats, err := cluster.RecoverBroker()
			if err != nil {
				return res, fmt.Errorf("%s: recover: %w", stage, err)
			}
			recoveryMS = append(recoveryMS, float64(time.Since(start).Microseconds())/1000)
			res.ReplayedRecords += stats.ReplayedRecords
			res.SnapshotSeqs = append(res.SnapshotSeqs, stats.SnapshotSeq)
			res.Adopted += stats.Adopted
			res.Refunded += stats.Refunded
			res.ParkedCleared += stats.ParkedCleared

			post, err := digestBroker(cluster)
			if err != nil {
				return res, fmt.Errorf("%s: digest: %w", stage, err)
			}
			if post == pre {
				res.DigestMatches++
			} else {
				res.InvariantViolations++
				res.Violations = append(res.Violations,
					fmt.Sprintf("%s: recovered state diverged\n pre: %s\npost: %s", stage, pre, post))
			}
			res.Checks++
			record(stage+" post-recovery", invariant.CheckAll(cluster.Broker, clock.Now(), cluster.Pool))
		}
	}

	// Final drain on a healthy substrate, exactly as RunChaos does.
	inj.SetEnabled(false)
	inj.ReleaseHangs()
	cluster.Broker.NotifyFailure(resource.Capacity{})
	for _, cl := range clients {
		cl.drain()
		res.Requested += cl.requested
		res.Admitted += cl.admitted
		res.Terminated += cl.terminated
	}
	cluster.Broker.ReconcileReservations()
	clock.Advance(72 * time.Hour)
	cluster.Broker.ExpireDue()
	cluster.Broker.ReconcileReservations()

	res.Checks++
	record("post-drain", invariant.CheckAll(cluster.Broker, clock.Now(), cluster.Pool))
	record("post-drain", invariant.CheckReservations(cluster.Broker, cluster.GARA,
		invariant.ReservationCheck{Final: true}))

	res.CapacityRestored = true
	for si, alloc := range cluster.Broker.Allocators() {
		plan := alloc.Plan()
		if users := alloc.GuaranteedUsers(); len(users) != 0 {
			res.CapacityRestored = false
			res.InvariantViolations++
			res.Violations = append(res.Violations, fmt.Sprintf(
				"drain: shard %d: %d guaranteed grant(s) survive: %v", si, len(users), users))
		}
		if got := alloc.AvailableGuaranteed(); !got.Equal(plan.Guaranteed) {
			res.CapacityRestored = false
			res.InvariantViolations++
			res.Violations = append(res.Violations, fmt.Sprintf(
				"drain: shard %d guaranteed headroom %v, want %v", si, got, plan.Guaranteed))
		}
	}

	appends, _, snapshots := cluster.Broker.WALStats()
	res.WALRecords = appends
	res.WALSnapshots = snapshots
	res.RecoveryP95MS = percentile(sortedCopy(recoveryMS), 0.95)
	if cfg.Intake {
		res.Intake = true
		submitted := cfg.Obs.Counter("gqosm_intake_submitted_total",
			"Admissions accepted into the intake queues").Value()
		flushes := cfg.Obs.Counter("gqosm_intake_flushes_total",
			"Group-commit flushes executed").Value()
		if flushes > 0 {
			res.IntakeBatchMean = float64(submitted) / float64(flushes)
		}
	}
	return res, nil
}
