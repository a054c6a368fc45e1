package sim

// This file is the multi-broker harness: N independent sim Clusters
// (each its own core.Broker, pool, GARA, GRAM, registry — exactly what
// N aqosd processes would own) behind a cluster.Front, driven by one
// shared manual clock.
//
// Two runners:
//
//   - RunClusterSim drives O(10⁵) simulated clients through front-tier
//     placement with federation fallback, forced hand-off migrations,
//     and the cluster-level invariant oracle at fixed cadences. The
//     per-client outcome sequence is digested (admissions and
//     rejections only — migrations are cluster-internal rebalancing and
//     excluded), and the digest is workload-deterministic AND
//     broker-count-independent: the sliding session window keeps demand
//     far enough under cluster capacity that every regular admission
//     succeeds somewhere, and every oversized probe fails everywhere,
//     so a 3-broker run must reproduce the 1-broker outcome sequence
//     exactly. gridsim gates on that N=1 vs N=3 parity.
//
//   - RunHandoffCrash admits a small durable workload, then kills the
//     hand-off source broker at the worst point — after the target
//     committed the import, before CompleteHandoff — recovers it from
//     its WAL, reconciles, and reports whether exactly one owner
//     survived.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/cluster"
	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// ClusterSimConfig sizes a RunClusterSim run.
type ClusterSimConfig struct {
	// Brokers is the number of broker instances (default 3).
	Brokers int
	// Clients is the number of simulated clients; each performs one
	// admission and participates in the sliding live window (default
	// 100000).
	Clients int
	// Seed drives the deterministic request-size schedule.
	Seed int64
	// Placement is the front tier's policy (default consistent hash,
	// the deterministic one the parity gate uses).
	Placement cluster.Placement
	// Shards is the per-broker shard count (default 1).
	Shards int
	// Window is the live-session cap; the oldest session is terminated
	// when an admission would exceed it (default 64).
	Window int
	// MigrateEvery forces a hand-off of the oldest live session every
	// that many clients when Brokers > 1 (default 512; 0 disables).
	MigrateEvery int
	// CheckEvery is the cluster-invariant cadence in clients (default
	// 2048).
	CheckEvery int
}

// ClusterSimResult reports a RunClusterSim run. Every field is
// deterministic for a configuration except ElapsedMS.
type ClusterSimResult struct {
	Brokers   int    `json:"brokers"`
	Shards    int    `json:"shards"`
	Clients   int    `json:"clients"`
	Seed      int64  `json:"seed"`
	Placement string `json:"placement"`
	Window    int    `json:"window"`

	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Errors    int `json:"errors"`
	Forwarded int `json:"forwarded"`

	Migrations        int `json:"migrations"`
	MigrationFailures int `json:"migration_failures"`

	Checks              int      `json:"checks"`
	InvariantViolations int      `json:"invariant_violations"`
	Violations          []string `json:"violations,omitempty"`

	// OutcomeDigest is the FNV-64a hash of the per-client outcome
	// letters ('A' admitted, 'R' rejected, 'E' error) — the value the
	// N=1 vs N=3 parity gate compares.
	OutcomeDigest string `json:"outcome_digest"`

	// PerBroker reports each member's final live-session count and the
	// total sessions it admitted over the run.
	PerBroker []ClusterBrokerStat `json:"per_broker"`

	ElapsedMS float64 `json:"elapsed_ms"`
}

// ClusterBrokerStat is one member's summary.
type ClusterBrokerStat struct {
	Domain   string  `json:"domain"`
	Sessions int     `json:"sessions"`
	Load     float64 `json:"load"`
}

// clusterPlan is the cluster-wide Algorithm-1 partition the multi-broker
// harness splits across members: roomy enough that the sliding window
// (64 sessions × ≤3 CPU) never exhausts the cluster, small enough that
// hash skew overflows single members and exercises the fallback.
func clusterPlan() core.CapacityPlan {
	return core.CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 192, MemoryMB: 98304, DiskGB: 1920},
		Adaptive:   resource.Capacity{CPU: 48, MemoryMB: 24576, DiskGB: 480},
		BestEffort: resource.Capacity{CPU: 24, MemoryMB: 12288, DiskGB: 240},
	}
}

// clusterMembers assembles n sim Clusters on one shared clock with the
// cluster-wide plan split across them, plus the front over their slots.
func clusterMembers(n, shards int, placement cluster.Placement, clock *clockx.Manual, walRoot string) ([]*Cluster, *cluster.Front, error) {
	plan := clusterPlan()
	parts := plan.Split(n)
	members := make([]*Cluster, n)
	slots := make([]*cluster.Slot, n)
	for i := 0; i < n; i++ {
		cfg := ClusterConfig{
			Plan:   parts[i],
			Domain: fmt.Sprintf("node-%d", i+1),
			// Every member advertises the CLUSTER total so discovery
			// admits any request the cluster could conceivably serve;
			// the allocator (and the federation fallback) decides.
			ServiceCapacity: plan.Total(),
			Shards:          shards,
			Clock:           clock,
		}
		if walRoot != "" {
			cfg.WAL = core.DurabilityConfig{Dir: filepath.Join(walRoot, cfg.Domain)}
		}
		c, err := NewCluster(cfg)
		if err != nil {
			return nil, nil, err
		}
		members[i] = c
		slots[i] = cluster.NewSlot(c.Broker)
	}
	front, err := cluster.New(cluster.Config{Placement: placement}, slots...)
	if err != nil {
		return nil, nil, err
	}
	return members, front, nil
}

func brokersOf(members []*Cluster) []*core.Broker {
	out := make([]*core.Broker, len(members))
	for i, m := range members {
		out[i] = m.Broker
	}
	return out
}

// RunClusterSim drives the multi-broker workload described in the file
// comment. A non-nil error means the harness itself failed; invariant
// violations are reported in the result for the caller to gate on.
func RunClusterSim(cfg ClusterSimConfig) (*ClusterSimResult, error) {
	if cfg.Brokers <= 0 {
		cfg.Brokers = 3
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 100000
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.MigrateEvery == 0 {
		cfg.MigrateEvery = 512
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 2048
	}

	clock := clockx.NewManual(Epoch)
	members, front, err := clusterMembers(cfg.Brokers, cfg.Shards, cfg.Placement, clock, "")
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	brokers := brokersOf(members)

	res := &ClusterSimResult{
		Brokers: cfg.Brokers, Shards: cfg.Shards, Clients: cfg.Clients,
		Seed: cfg.Seed, Placement: cfg.Placement.String(), Window: cfg.Window,
	}
	record := func(stage string, err error) {
		recordViolations(&res.InvariantViolations, &res.Violations, stage, err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	digest := fnv.New64a()
	var live []sla.ID
	total := clusterPlan().Total()
	start := time.Now()

	for i := 0; i < cfg.Clients; i++ {
		// Fixed draw count per client, so the schedule is identical for
		// every broker count.
		r1 := rng.Intn(3) + 1 // CPU nodes 1–3
		r2 := rng.Intn(4) + 1 // memory/disk scale

		name := fmt.Sprintf("client-%06d", i)
		now := clock.Now()
		req := core.Request{
			Service: "simulation",
			Client:  name,
			Class:   sla.ClassGuaranteed,
			Start:   now,
			End:     now.Add(1000 * time.Hour),
		}
		if i%97 == 96 {
			// Oversized probe: more CPU than the whole cluster owns —
			// must be rejected by every member, under any placement.
			req.Spec = sla.NewSpec(sla.Exact(resource.CPU, total.CPU+16))
		} else {
			req.Spec = sla.NewSpec(
				sla.Exact(resource.CPU, float64(r1)),
				sla.Exact(resource.MemoryMB, float64(128*r2)),
				sla.Exact(resource.DiskGB, float64(r2)),
			)
		}

		offer, err := front.RequestService(req)
		// Settle the fan-out before the next client: a losing peer's offer
		// holds a temporary reservation until its asynchronous retraction
		// lands, and an admission racing that window can see less capacity
		// than the settled state — a (legal, confirm-window-bounded)
		// transient that would make the outcome digest timing-dependent
		// and break the N=1 parity gate this serial driver exists to
		// enforce.
		front.Quiesce()
		switch {
		case err == nil:
			if aerr := front.Accept(offer.SLA.ID); aerr != nil {
				res.Errors++
				digest.Write([]byte{'E'})
				break
			}
			res.Admitted++
			if offer.Forwarded {
				res.Forwarded++
			}
			digest.Write([]byte{'A'})
			live = append(live, offer.SLA.ID)
			if len(live) > cfg.Window {
				oldest := live[0]
				live = live[1:]
				if terr := front.Terminate(oldest, "window slide"); terr != nil {
					record(fmt.Sprintf("client %d terminate %s", i, oldest), terr)
				}
			}
		case isClusterReject(err):
			res.Rejected++
			digest.Write([]byte{'R'})
		default:
			res.Errors++
			digest.Write([]byte{'E'})
		}

		// Forced rebalancing migrations — cluster-internal, so they are
		// deliberately NOT part of the outcome digest.
		if cfg.Brokers > 1 && cfg.MigrateEvery > 0 && i%cfg.MigrateEvery == cfg.MigrateEvery-1 && len(live) > 0 {
			id := live[0]
			if dom, ok := front.Owner(id); ok {
				var idx int
				for j, s := range front.Slots() {
					if s.Domain() == dom {
						idx = j
						break
					}
				}
				target := front.Slots()[(idx+1)%cfg.Brokers].Domain()
				if merr := front.Migrate(id, target); merr == nil {
					res.Migrations++
				} else {
					res.MigrationFailures++
				}
			}
		}

		if i%16 == 15 {
			clock.Advance(time.Second)
		}
		if i%cfg.CheckEvery == cfg.CheckEvery-1 {
			res.Checks++
			// Quiesce before checking: a fan-out's slow losers and their
			// retractions are still committing/tearing down in background
			// goroutines, and the per-broker suite would read their
			// half-installed sessions as violations.
			front.Quiesce()
			record(fmt.Sprintf("client %d", i), invariant.CheckCluster(brokers...))
			for _, b := range brokers {
				b.PruneTerminal()
			}
		}
	}

	// Drain the window, then the full final suite: cluster invariants,
	// per-broker reservation hygiene, and capacity restoration. Quiesce
	// first — a losing fan-out offer whose retraction is still in flight
	// would read as a leaked reservation.
	front.Quiesce()
	for _, id := range live {
		if err := front.Terminate(id, "drain"); err != nil {
			record(fmt.Sprintf("drain %s", id), err)
		}
	}
	res.Checks++
	record("post-drain", invariant.CheckCluster(brokers...))
	for i, m := range members {
		record(fmt.Sprintf("post-drain %s", m.Broker.Domain()),
			invariant.CheckReservations(m.Broker, m.GARA, invariant.ReservationCheck{Final: true}))
		for si, alloc := range m.Broker.Allocators() {
			if users := alloc.GuaranteedUsers(); len(users) != 0 {
				record("drain", fmt.Errorf("broker %d shard %d: %d guaranteed grant(s) survive", i, si, len(users)))
			}
		}
	}

	for _, b := range brokers {
		r := b.LoadReport()
		res.PerBroker = append(res.PerBroker, ClusterBrokerStat{
			Domain: r.Domain, Sessions: r.Sessions, Load: r.Load,
		})
	}
	res.OutcomeDigest = fmt.Sprintf("%016x", digest.Sum64())
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

// isClusterReject classifies the errors that mean "the cluster refused
// this request" (identical for one broker and many) rather than a
// harness failure.
func isClusterReject(err error) bool {
	return errorIsAny(err,
		core.ErrNoDomainCanServe, core.ErrCannotHonor,
		core.ErrNoService, core.ErrOverBudget)
}

func errorIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// HandoffCrashConfig sizes a RunHandoffCrash run.
type HandoffCrashConfig struct {
	// Brokers is the member count (default 3).
	Brokers int
	// Sessions is how many sessions to admit before the forced
	// migration (default 48 — small enough that even the worst-case
	// request schedule fits the cluster's guaranteed partition, since
	// this runner never slides a window).
	Sessions int
	// Seed drives the request-size schedule.
	Seed int64
	// Dir is the WAL root (one subdirectory per member); empty creates
	// and removes a temporary root.
	Dir string
}

// HandoffCrashResult reports a RunHandoffCrash run.
type HandoffCrashResult struct {
	Brokers  int   `json:"brokers"`
	Sessions int   `json:"sessions"`
	Seed     int64 `json:"seed"`

	MigratedID string `json:"migrated_id"`
	Source     string `json:"source"`
	Target     string `json:"target"`

	// SingleOwner is the acceptance bar: after the source is killed
	// mid-migration (import committed, completion not), recovered, and
	// reconciled, exactly one broker owns the session.
	SingleOwner bool   `json:"single_owner"`
	Owners      int    `json:"owners"`
	OwnerDomain string `json:"owner_domain"`

	// Completed/Aborted are the front reconcile's counters;
	// HandoffsResolved is the source recovery's inbound sweep.
	Completed        int `json:"completed"`
	Aborted          int `json:"aborted"`
	HandoffsResolved int `json:"handoffs_resolved"`
	ReplayedRecords  int `json:"replayed_records"`

	Checks              int      `json:"checks"`
	InvariantViolations int      `json:"invariant_violations"`
	Violations          []string `json:"violations,omitempty"`

	ElapsedMS float64 `json:"elapsed_ms"`
}

// RunHandoffCrash drives the satellite-3 interleaving end to end on
// durable brokers: admit, begin hand-off, import on the target, kill
// the source before CompleteHandoff, recover it from its WAL, reconcile
// via the front, and verify the single-owner outcome plus the full
// invariant suite after a drain.
func RunHandoffCrash(cfg HandoffCrashConfig) (*HandoffCrashResult, error) {
	if cfg.Brokers <= 0 {
		cfg.Brokers = 3
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 48
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "gqosm-cluster-wal-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}

	clock := clockx.NewManual(Epoch)
	members, front, err := clusterMembers(cfg.Brokers, 1, cluster.PlaceHash, clock, cfg.Dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()

	res := &HandoffCrashResult{Brokers: cfg.Brokers, Sessions: cfg.Sessions, Seed: cfg.Seed}
	record := func(stage string, err error) {
		recordViolations(&res.InvariantViolations, &res.Violations, stage, err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var live []sla.ID
	start := time.Now()
	for i := 0; i < cfg.Sessions; i++ {
		r1 := rng.Intn(3) + 1
		now := clock.Now()
		offer, err := front.RequestService(core.Request{
			Service: "simulation",
			Client:  fmt.Sprintf("hc-client-%03d", i),
			Class:   sla.ClassGuaranteed,
			Spec:    sla.NewSpec(sla.Exact(resource.CPU, float64(r1))),
			Start:   now,
			End:     now.Add(1000 * time.Hour),
		})
		// Same per-admission settling as RunClusterSim: every session here
		// MUST admit, and a still-unretracted losing offer could transiently
		// crowd one out.
		front.Quiesce()
		if err != nil {
			return res, fmt.Errorf("admission %d: %w", i, err)
		}
		if err := front.Accept(offer.SLA.ID); err != nil {
			return res, fmt.Errorf("accept %d: %w", i, err)
		}
		live = append(live, offer.SLA.ID)
		if i%8 == 7 {
			clock.Advance(time.Second)
		}
	}

	// Let the fan-out's background retractions settle before the crash
	// drill and its invariant checkpoints.
	front.Quiesce()

	// Pick a migration pair: the first live session, toward the next
	// slot. The front is NOT used for the migration itself — the crash
	// must land between ImportSession and CompleteHandoff, a window
	// Front.Migrate does not expose.
	id := live[0]
	srcDom, ok := front.Owner(id)
	if !ok {
		return res, fmt.Errorf("no owner recorded for %s", id)
	}
	srcIdx := 0
	for j, s := range front.Slots() {
		if s.Domain() == srcDom {
			srcIdx = j
			break
		}
	}
	tgtIdx := (srcIdx + 1) % cfg.Brokers
	srcSlot, tgtSlot := front.Slots()[srcIdx], front.Slots()[tgtIdx]
	res.MigratedID, res.Source, res.Target = string(id), srcSlot.Domain(), tgtSlot.Domain()

	st, err := srcSlot.Broker().BeginHandoff(id, tgtSlot.Domain())
	if err != nil {
		return res, fmt.Errorf("begin handoff: %w", err)
	}
	if err := tgtSlot.Broker().ImportSession(st); err != nil {
		return res, fmt.Errorf("import: %w", err)
	}

	// The worst crash point: the target committed, the source still
	// thinks it owns the session and holds the journaled out-intent.
	srcSlot.MarkRecovering(true)
	srcSlot.Broker().Crash()
	stats, err := members[srcIdx].RecoverBroker()
	if err != nil {
		return res, fmt.Errorf("recover: %w", err)
	}
	res.HandoffsResolved = stats.HandoffsResolved
	res.ReplayedRecords = stats.ReplayedRecords
	if err := srcSlot.Swap(members[srcIdx].Broker); err != nil {
		return res, err
	}
	res.Completed, res.Aborted = front.ReconcileHandoffs()

	brokers := brokersOf(members)
	owners := 0
	for _, b := range brokers {
		if doc, err := b.Session(id); err == nil && !doc.State.Terminal() {
			owners++
			res.OwnerDomain = b.Domain()
		}
	}
	res.Owners = owners
	res.SingleOwner = owners == 1 && res.OwnerDomain == tgtSlot.Domain()
	res.Checks++
	record("post-reconcile", invariant.CheckCluster(brokers...))

	// Drain and run the final suite.
	for _, sid := range live {
		if _, ok := front.Owner(sid); ok {
			if err := front.Terminate(sid, "drain"); err != nil {
				record(fmt.Sprintf("drain %s", sid), err)
			}
		}
	}
	res.Checks++
	record("post-drain", invariant.CheckCluster(brokers...))
	for _, m := range members {
		record(fmt.Sprintf("post-drain %s", m.Broker.Domain()),
			invariant.CheckReservations(m.Broker, m.GARA, invariant.ReservationCheck{Final: true}))
	}
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}
