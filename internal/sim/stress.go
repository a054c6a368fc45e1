package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/faultx"
	"gqosm/internal/gara"
	"gqosm/internal/httpapi"
	"gqosm/internal/invariant"
	"gqosm/internal/obs"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// This file is the stress driver: N clients drive a shared broker
// through the full Fig. 3 lifecycle — request, accept, reject, invoke,
// terminate, offer expiry, failure/recovery and optimizer passes — each
// on a deterministic per-client seed schedule, under any mix of four
// perturbations: seeded faults at the substrates and broker call sites,
// WAL kill-and-recover restarts, the batched intake, and a loopback
// JSON transport.
//
// Faults and restarts need one call order — the injector draws from
// one PRNG, and kill points fall between fixed rounds — so those runs
// step clients serially, round-robin on the manual clock, and repeat
// bit for bit outside the report's wall block. Other runs use one
// goroutine per client: each schedule is still seeded, the
// interleaving is not.
//
// Every run gets the same oracle: the full suite at every phase
// barrier, a digest comparison at every kill point, and after one drain
// sequence the drain-only rules plus an exact capacity check.
// Violations land in the report, never in the error, so the report is
// always emitted for CI to gate on.
//
// Faults never hit the WAL's own append/sync sites: a sealed log models
// a disk that died before the kill, so state written after the seal is
// legitimately lost and digest equality cannot hold. The crash-point
// matrix tests cover WAL-site faults, with coherence as the oracle.

// StressConfig sizes a RunStress run. FaultRate, Restarts, Intake and
// Transport are the perturbations, all off by default.
type StressConfig struct {
	Clients int   // default 8
	Ops     int   // total lifecycle operations, default 10000
	Phases  int   // quiesce points, default 10
	Seed    int64 // client i draws from Seed+i, the fault injector from Seed
	Shards  int   // default 1
	// Obs receives the run's metrics; nil creates a private registry.
	Obs           *obs.Registry
	DisableCaches bool
	// Intake routes admissions through the group-commit intake:
	// SubmitWait from goroutine clients; in serial runs Submit, then one
	// FlushIntake per round, so batches form deterministically.
	Intake bool
	// Transport "http" sends admissions as POSTs to a loopback JSON-API
	// server (goroutine runs only); "" keeps them in-process.
	Transport string
	// FaultRate is the per-site injection probability; 0 = no injector.
	FaultRate float64
	// Restarts > 0 makes the broker durable and kills and recovers it
	// that many times, journaling to WALDir (empty = a temp directory).
	Restarts int
	WALDir   string
}

// StressReport is a RunStress report (schema bench_stress/v1). Every
// field outside Wall repeats across serial runs of one configuration;
// the fault and restart blocks are flattened in and omitted when that
// perturbation is off.
type StressReport struct {
	Schema  string `json:"schema"`
	Seed    int64  `json:"seed"`
	Shards  int    `json:"shards"`
	Clients int    `json:"clients"`
	Ops     int    `json:"ops"`
	Phases  int    `json:"phases"`

	Intake          bool    `json:"intake,omitempty"`
	IntakeBatchMean float64 `json:"intake_batch_mean,omitempty"` // submissions per flush
	Transport       string  `json:"transport,omitempty"`

	// Successful lifecycle transitions; AdmitRate is Admitted/Requested.
	Requested  int     `json:"requested"`
	Admitted   int     `json:"admitted"`
	Terminated int     `json:"terminated"`
	AdmitRate  float64 `json:"admit_rate"`

	Degradations      int64 `json:"degradations"`
	Restorations      int64 `json:"restorations"`
	ReconciledCancels int   `json:"reconciled_cancels"` // parked cancels cleared at drain

	// CacheHitRate is the discovery cache's hit fraction, omitted when
	// the cache saw no traffic.
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`

	// Per-shard sessions and guaranteed load factor at the last phase
	// barrier; sharded runs only.
	ShardSessions    []int     `json:"shard_sessions,omitempty"`
	ShardUtilization []float64 `json:"shard_utilization,omitempty"`

	*StressFaults
	*StressRestarts

	// CapacityRestored: the drain returned every shard to its plan.
	CapacityRestored bool `json:"capacity_restored"`

	// InvariantViolations is exact; Violations keeps the first 20.
	// Checks counts oracle passes: one per phase barrier, two per kill
	// point (pre-kill, post-recovery) and one after the drain.
	InvariantViolations int      `json:"invariant_violations"`
	Checks              int      `json:"checks"`
	Violations          []string `json:"violations,omitempty"`

	// Wall holds every wall-clock value, so `del(.wall)` leaves the
	// deterministic part.
	Wall StressWall `json:"wall"`
}

// StressFaults is the fault-injection block of a StressReport.
type StressFaults struct {
	FaultRate float64 `json:"fault_rate"`
	// Retry-policy budget totals across all RM-facing call sites.
	Retries     int64 `json:"retries"`
	Timeouts    int64 `json:"timeouts"`
	Unavailable int64 `json:"unavailable"`
	// FaultsByKind keys: error, latency, hang, partial, crash.
	FaultsInjected int64            `json:"faults_injected"`
	FaultsByKind   map[string]int64 `json:"faults_by_kind"`
	// VirtualP95MS is the p95 of injected virtual latency: the
	// deterministic stand-in for tail latency under faults.
	VirtualP95MS float64 `json:"virtual_p95_ms"`
}

// StressRestarts is the kill-and-recover block of a StressReport; the
// replay and reconcile counters are summed over all recoveries.
type StressRestarts struct {
	Restarts        int      `json:"restarts"`
	ReplayedRecords int      `json:"replayed_records"`
	SnapshotSeqs    []uint64 `json:"snapshot_seqs"` // each recovery's base sequence
	Adopted         int      `json:"adopted"`
	Refunded        int      `json:"refunded"`
	ParkedCleared   int      `json:"parked_cleared"`
	// DigestMatches counts recoveries whose state digest equalled the
	// pre-kill digest; CI requires it to equal Restarts.
	DigestMatches int   `json:"digest_matches"`
	WALRecords    int64 `json:"wal_records"` // the final broker's totals
	WALSnapshots  int64 `json:"wal_snapshots"`
}

// StressWall is the wall-clock block of a StressReport. The admission
// percentiles are read from the broker's admission histogram.
type StressWall struct {
	ElapsedMS     float64 `json:"elapsed_ms"` // the phased operation loop
	OpsPerSec     float64 `json:"ops_per_sec"`
	AdmitP50MS    float64 `json:"admit_p50_ms"`
	AdmitP95MS    float64 `json:"admit_p95_ms"`
	AdmitP99MS    float64 `json:"admit_p99_ms"`
	RecoveryP95MS float64 `json:"recovery_p95_ms,omitempty"` // per core.Recover
}

// record adds err's oracle findings to the report under stage.
func (r *StressReport) record(stage string, err error) {
	recordViolations(&r.InvariantViolations, &r.Violations, stage, err)
}

// DefaultParallelPlan is the §5.6 partition every stress run uses.
func DefaultParallelPlan() core.CapacityPlan {
	return core.CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120},
		Adaptive:   resource.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40},
		BestEffort: resource.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40},
	}
}

// RunStress runs the stress workload under cfg's perturbations. A
// non-nil error means the harness itself failed (bad input, assembly,
// a failed recovery); oracle violations and lost capacity are reported
// in the result.
func RunStress(cfg StressConfig) (*StressReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 10000
	}
	if cfg.Phases <= 0 {
		cfg.Phases = 10
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	serial := cfg.FaultRate > 0 || cfg.Restarts > 0
	switch cfg.Transport {
	case "":
	case "http":
		if serial {
			return nil, fmt.Errorf("transport http needs a goroutine run (no faults or restarts): the serial replays stay in-process for determinism")
		}
	default:
		return nil, fmt.Errorf("bad transport %q (want \"\" or \"http\")", cfg.Transport)
	}

	clock := clockx.NewManual(Epoch)
	ccfg := ClusterConfig{Plan: DefaultParallelPlan(), Shards: cfg.Shards, Obs: cfg.Obs, Clock: clock,
		DisableCaches: cfg.DisableCaches, Intake: core.IntakeConfig{Enabled: cfg.Intake}}
	var inj *faultx.Injector
	if cfg.FaultRate > 0 {
		inj = faultx.New(cfg.Seed, clock)
		// Crash windows are kept short relative to the workload's
		// simulated time (clients advance the clock ~1–10 min on a tenth
		// of their steps), so crashed sites recover mid-run and the
		// crash-then-recover path is exercised, not just fail-fast.
		inj.SetDefault(faultx.Plan{Rate: cfg.FaultRate, CrashFor: 2 * time.Minute})
		// The WAL's own sites stay fault-free (see the file comment).
		inj.SetPlan("wal.append", faultx.Plan{})
		inj.SetPlan("wal.sync", faultx.Plan{})
		ccfg.Faults = inj
		// Backoff MUST stay 0: the serial run is on the manual clock, and
		// a backoff sleep would park forever with nobody advancing time.
		// Timed-out hang attempts charge the 2 s deadline to the virtual
		// latency accounting instead.
		ccfg.RMPolicy = core.RetryPolicy{Attempts: 3, Timeout: 2 * time.Second, Seed: cfg.Seed}
	}
	if cfg.Restarts > 0 {
		if cfg.WALDir == "" {
			dir, err := os.MkdirTemp("", "gqosm-wal-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			cfg.WALDir = dir
		}
		ccfg.WAL = core.DurabilityConfig{Dir: cfg.WALDir}
	}
	cluster, err := NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	mode := admitDirect
	switch {
	case cfg.Intake && serial:
		mode = admitQueue
	case cfg.Intake:
		mode = admitWait
	}
	var apiClient *httpapi.Client
	if cfg.Transport == "http" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("transport http: %w", err)
		}
		srv := &http.Server{Handler: httpapi.NewServer(cluster.Broker)}
		go srv.Serve(ln) //nolint:errcheck // shut down via Close below
		defer srv.Close()
		apiClient = httpapi.NewClient("http://" + ln.Addr().String())
	}
	clients := make([]*parClient, cfg.Clients)
	for i := range clients {
		clients[i] = &parClient{
			id:         i,
			rng:        rand.New(rand.NewSource(cfg.Seed + int64(i))),
			cluster:    cluster,
			intakeMode: mode,
			http:       apiClient,
		}
	}
	perPhase := cfg.Ops / (cfg.Clients * cfg.Phases)
	if perPhase < 1 {
		perPhase = 1
	}
	if perPhase*cfg.Phases < cfg.Restarts+1 {
		perPhase = (cfg.Restarts + cfg.Phases) / cfg.Phases
	}
	rounds := perPhase * cfg.Phases
	killEvery := rounds / (cfg.Restarts + 1)

	res := &StressReport{Schema: "bench_stress/v1", Seed: cfg.Seed, Shards: cfg.Shards,
		Clients: cfg.Clients, Ops: rounds * cfg.Clients, Phases: cfg.Phases,
		Intake: cfg.Intake, Transport: cfg.Transport}
	if inj != nil {
		res.StressFaults = &StressFaults{FaultRate: cfg.FaultRate}
	}
	if cfg.Restarts > 0 {
		res.StressRestarts = &StressRestarts{Restarts: cfg.Restarts}
	}
	// quiesce runs the oracle at a point where nothing is in flight.
	quiesce := func(stage string, final bool) {
		res.Checks++
		res.record(stage, invariant.CheckAll(cluster.Broker, clock.Now(), cluster.Pool))
		res.record(stage, invariant.CheckReservations(cluster.Broker, cluster.GARA, invariant.ReservationCheck{Final: final}))
		res.record(stage, invariant.CheckIntake(cluster.Broker))
	}

	var recoveryMS []float64
	round, killed := 0, 0
	start := time.Now()
	for phase := 0; phase < cfg.Phases; phase++ {
		if !serial {
			var wg sync.WaitGroup
			for _, cl := range clients {
				wg.Add(1)
				go func(cl *parClient) {
					defer wg.Done()
					for i := 0; i < perPhase; i++ {
						cl.step()
					}
				}(cl)
			}
			wg.Wait()
		}
		for i := 0; serial && i < perPhase; i++ {
			for _, cl := range clients {
				cl.step()
			}
			if cfg.Intake {
				// One deterministic group commit per round, and in
				// particular before any kill point: queued admissions are
				// not yet journaled, so the digest must never see them.
				cluster.Broker.FlushIntake()
				for _, cl := range clients {
					cl.resolveTickets()
				}
			}
			round++
			if killed < cfg.Restarts && round%killEvery == 0 {
				killed++
				ms, err := killAndRecover(cluster, res, fmt.Sprintf("restart %d", killed))
				if err != nil {
					return res, err
				}
				recoveryMS = append(recoveryMS, ms)
			}
		}
		quiesce(fmt.Sprintf("phase %d", phase), false)
	}
	// Sample placement balance at the final quiesce point, while sessions
	// are still live; after the drain every shard reads empty.
	if cfg.Shards > 1 {
		res.ShardSessions = cluster.Broker.ShardSessionCounts()
		for _, a := range cluster.Broker.Allocators() {
			res.ShardUtilization = append(res.ShardUtilization, a.LoadFactor())
		}
	}
	elapsed := time.Since(start)
	res.Wall.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	if elapsed > 0 {
		res.Wall.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	}

	// Final drain on a healthy substrate.
	if inj != nil {
		inj.SetEnabled(false)
		inj.ReleaseHangs()
	}
	cluster.Broker.NotifyFailure(resource.Capacity{})
	for _, cl := range clients {
		cl.drain()
		res.Requested += cl.requested
		res.Admitted += cl.admitted
		res.Terminated += cl.terminated
	}
	res.ReconciledCancels += cluster.Broker.ReconcileReservations()
	clock.Advance(72 * time.Hour) // expire surviving offers and sessions
	cluster.Broker.ExpireDue()
	res.ReconciledCancels += cluster.Broker.ReconcileReservations()
	quiesce("post-drain", true)

	before := res.InvariantViolations
	for si, alloc := range cluster.Broker.Allocators() {
		plan := alloc.Plan()
		if users := alloc.GuaranteedUsers(); len(users) != 0 {
			res.record("drain", fmt.Errorf("shard %d: %d guaranteed grant(s) survive: %v", si, len(users), users))
		}
		if got := alloc.AvailableGuaranteed(); !got.Equal(plan.Guaranteed) {
			res.record("drain", fmt.Errorf("shard %d guaranteed headroom %v, want %v", si, got, plan.Guaranteed))
		}
		if got := alloc.AvailableBestEffort(); !got.Equal(plan.Total()) {
			res.record("drain", fmt.Errorf("shard %d best-effort headroom %v, want %v", si, got, plan.Total()))
		}
	}
	res.CapacityRestored = res.InvariantViolations == before

	if res.Requested > 0 {
		res.AdmitRate = float64(res.Admitted) / float64(res.Requested)
	}
	// The registry hands back existing series on re-registration, so the
	// broker's metrics are reachable by name without plumbing (and
	// Counter.Value is nil-safe, so a disabled feature reads zero).
	counter := func(name, help string, labels ...string) float64 {
		return float64(cfg.Obs.Counter(name, help, labels...).Value())
	}
	lifecycle := func(event string) int64 {
		return int64(counter("gqosm_broker_lifecycle_total", "SLA lifecycle events by kind", "event", event))
	}
	res.Degradations = lifecycle("degrade")
	res.Restorations = lifecycle("restore")
	hits := counter("gqosm_discovery_cache_hits_total",
		"Discovery queries answered from the generation-stamped cache")
	misses := counter("gqosm_discovery_cache_misses_total",
		"Discovery queries that fell through to a registry Find")
	if hits+misses > 0 {
		res.CacheHitRate = hits / (hits + misses)
	}
	if cfg.Intake {
		submitted := counter("gqosm_intake_submitted_total", "Admissions accepted into the intake queues")
		if flushes := counter("gqosm_intake_flushes_total", "Group-commit flushes executed"); flushes > 0 {
			res.IntakeBatchMean = submitted / flushes
		}
	}
	admit := cfg.Obs.Histogram("gqosm_broker_admission_seconds",
		"RequestService latency (discovery, admission, reservation)", nil)
	res.Wall.AdmitP50MS = admit.Quantile(0.50) * 1e3
	res.Wall.AdmitP95MS = admit.Quantile(0.95) * 1e3
	res.Wall.AdmitP99MS = admit.Quantile(0.99) * 1e3
	if f := res.StressFaults; f != nil {
		f.Retries, f.Timeouts, f.Unavailable = cluster.Broker.RetryStats()
		f.FaultsInjected = inj.Total()
		f.FaultsByKind = inj.CountsByKind()
		f.VirtualP95MS = inj.VirtualP95MS()
	}
	if r := res.StressRestarts; r != nil {
		r.WALRecords, _, r.WALSnapshots = cluster.Broker.WALStats()
		res.Wall.RecoveryP95MS = percentile(sortedCopy(recoveryMS), 0.95)
	}
	return res, nil
}

// killAndRecover is one kill point: it checks and digests the live
// broker, crashes it, rebuilds it from the WAL and requires the
// recovered digest to match. It returns the recovery's wall time in
// milliseconds.
func killAndRecover(cluster *Cluster, res *StressReport, stage string) (float64, error) {
	res.Checks++
	res.record(stage+" pre-kill", invariant.CheckAll(cluster.Broker, cluster.Clock.Now(), cluster.Pool))
	res.record(stage+" pre-kill", invariant.CheckIntake(cluster.Broker))
	pre, err := digestBroker(cluster.Broker)
	if err != nil {
		return 0, fmt.Errorf("%s: digest: %w", stage, err)
	}

	cluster.Broker.Crash()
	start := time.Now()
	stats, err := cluster.RecoverBroker()
	if err != nil {
		return 0, fmt.Errorf("%s: recover: %w", stage, err)
	}
	ms := float64(time.Since(start).Microseconds()) / 1000
	r := res.StressRestarts
	r.ReplayedRecords += stats.ReplayedRecords
	r.SnapshotSeqs = append(r.SnapshotSeqs, stats.SnapshotSeq)
	r.Adopted += stats.Adopted
	r.Refunded += stats.Refunded
	r.ParkedCleared += stats.ParkedCleared

	post, err := digestBroker(cluster.Broker)
	if err != nil {
		return 0, fmt.Errorf("%s: digest: %w", stage, err)
	}
	if post == pre {
		r.DigestMatches++
	} else {
		res.record(stage, fmt.Errorf("recovered state diverged\n pre: %s\npost: %s", pre, post))
	}
	res.Checks++
	res.record(stage+" post-recovery", invariant.CheckAll(cluster.Broker, cluster.Clock.Now(), cluster.Pool))
	return ms, nil
}

// digestBroker renders the broker's externally observable state —
// sessions, allocator books, best-effort tables, ledger aggregates — as
// one comparable string. Parked cancels are left out: the recovery
// sweep clears them by design, so they legitimately differ across a
// kill.
func digestBroker(b *core.Broker) (string, error) {
	type session struct {
		ID         sla.ID
		State      sla.State
		Degraded   bool
		Violations int
		Handle     gara.Handle
		Allocated  resource.Capacity
	}
	type shard struct {
		Guaranteed                  []string
		AvailGuar, AvailBE, Offline resource.Capacity
		BestEffort                  []core.BEState
		BENextSeq                   int
	}
	var d struct {
		Sessions      []session
		Shards        []shard
		LedgerNet     float64
		LedgerTotals  map[pricing.EntryKind]float64
		LedgerEntries int
		LedgerEvicted int64
	}
	alloc := make(map[sla.ID]resource.Capacity)
	for _, doc := range b.Sessions(nil) {
		alloc[doc.ID] = doc.Allocated
	}
	for _, s := range b.SessionInfos() {
		d.Sessions = append(d.Sessions, session{s.ID, s.State, s.Degraded, s.Violations, s.Handle, alloc[s.ID]})
	}
	for _, a := range b.Allocators() {
		users := a.GuaranteedUsers()
		sort.Strings(users)
		offline, be, nextSeq := a.ExportAux()
		d.Shards = append(d.Shards, shard{users, a.AvailableGuaranteed(), a.AvailableBestEffort(),
			offline, be, nextSeq})
	}
	b.Ledger().ExportWith(func(st pricing.State) {
		d.LedgerNet, d.LedgerTotals, d.LedgerEntries, d.LedgerEvicted = st.Net, st.Totals, len(st.Entries), st.Evicted
	})
	data, err := json.Marshal(d)
	return string(data), err
}

// Admission paths a parClient can take for its "new request" steps.
const (
	// admitDirect calls RequestService.
	admitDirect = iota
	// admitWait calls SubmitWait: the concurrent group-commit path,
	// where waiters behind the same flush leader share one allocator
	// pass. Used by goroutine clients.
	admitWait
	// admitQueue calls Submit and defers resolution: serial runs flush
	// once per round-robin round and then resolve tickets in schedule
	// order, so batches form deterministically.
	admitQueue
)

// parClient is one client's deterministic schedule and local session
// bookkeeping.
type parClient struct {
	id      int
	rng     *rand.Rand
	cluster *Cluster

	// intakeMode selects the admission path (one of the admit*
	// constants); tickets holds unresolved admitQueue futures between a
	// round's submits and the flush.
	intakeMode int
	tickets    []*core.IntakeTicket

	// http, when set, sends "new request" admissions over the loopback
	// JSON API instead of in-process calls (StressConfig.Transport).
	http *httpapi.Client

	proposed []sla.ID
	active   []sla.ID

	requested, admitted, terminated int
}

// step performs one randomly chosen lifecycle operation. The mix mirrors
// the deterministic fuzz driver's.
//
// Every step draws exactly three values from the client's PRNG, whatever
// the broker answers: a conditional draw (e.g. only rolling an index when
// the proposed list is non-empty) would let other clients' interleaving —
// via shared broker outcomes — shift this client's stream, and the
// per-client schedule would stop being a pure function of the seed.
func (c *parClient) step() {
	b := c.cluster.Broker
	clock := c.cluster.Clock
	op := c.rng.Intn(10)
	r1 := c.rng.Intn(1 << 16)
	r2 := c.rng.Intn(1 << 16)
	switch {
	case op <= 2: // new request
		c.requested++
		var req core.Request
		now := clock.Now()
		tag := strconv.Itoa(c.id) + "-" + strconv.Itoa(c.requested)
		if r1%2 == 0 {
			req = core.Request{
				Service: "simulation",
				Client:  "par-g" + tag,
				Class:   sla.ClassGuaranteed,
				Spec:    sla.NewSpec(sla.Exact(resource.CPU, float64(1+r2%8))),
				Start:   now,
				End:     now.Add(time.Duration(1+(r2>>3)%6) * time.Hour),
			}
		} else {
			min := float64(1 + r2%3)
			req = core.Request{
				Service:           "simulation",
				Client:            "par-c" + tag,
				Class:             sla.ClassControlledLoad,
				Spec:              sla.NewSpec(sla.Range(resource.CPU, min, min+float64((r2>>2)%6))),
				Start:             now,
				End:               now.Add(time.Duration(1+(r2>>5)%6) * time.Hour),
				AcceptDegradation: (r1>>1)%2 == 0,
			}
		}
		c.request(req)
	case op == 3: // accept
		if id, ok := c.pick(&c.proposed, r1); ok {
			if err := b.Accept(id); err == nil {
				c.admitted++
				c.active = append(c.active, id)
			}
		}
	case op == 4: // reject
		if id, ok := c.pick(&c.proposed, r1); ok {
			_ = b.Reject(id)
		}
	case op == 5: // invoke
		if len(c.active) > 0 {
			_, _ = b.Invoke(c.active[r1%len(c.active)])
		}
	case op == 6: // terminate
		if id, ok := c.pick(&c.active, r1); ok {
			if err := b.Terminate(id, "parallel stress"); err == nil {
				c.terminated++
			}
		}
	case op == 7: // time passes; offers expire, sessions lapse
		clock.Advance(time.Duration(1+r1%10) * time.Minute)
		b.ExpireDue()
	case op == 8: // failure / recovery
		if r1%2 == 0 {
			b.NotifyFailure(resource.Nodes(float64(r2 % 6)))
		} else {
			b.NotifyFailure(resource.Capacity{})
		}
	case op == 9: // best-effort churn + optimizer
		client := "par-be" + strconv.Itoa(c.id)
		if r1%2 == 0 {
			_ = b.BestEffortRequest(client, resource.Nodes(float64(1+r2%4)))
		} else {
			_ = b.BestEffortRelease(client)
		}
		_, _ = b.RunOptimizer()
	}
}

// request admits req over the client's configured path and records the
// proposed SLA. In admitQueue mode the outcome is deferred: the driver
// flushes the intake once per round and calls resolveTickets.
func (c *parClient) request(req core.Request) {
	b := c.cluster.Broker
	if c.http != nil {
		// Over the wire the server picks the path (direct vs SubmitWait);
		// the client just sees an offer or a typed error.
		if offer, err := c.http.RequestService(req); err == nil {
			c.proposed = append(c.proposed, sla.ID(offer.SLAID))
		}
		return
	}
	switch c.intakeMode {
	case admitWait:
		if offer, err := b.SubmitWait(req); err == nil {
			c.proposed = append(c.proposed, offer.SLA.ID)
		}
	case admitQueue:
		if t, err := b.Submit(req); err == nil {
			c.tickets = append(c.tickets, t)
		}
	default:
		if offer, err := b.RequestService(req); err == nil {
			c.proposed = append(c.proposed, offer.SLA.ID)
		}
	}
}

// resolveTickets collects this client's queued admission outcomes after
// a FlushIntake. Submission order is preserved, so the proposed list
// grows deterministically in serial runs.
func (c *parClient) resolveTickets() {
	for _, t := range c.tickets {
		if offer, err := t.Wait(); err == nil {
			c.proposed = append(c.proposed, offer.SLA.ID)
		}
	}
	c.tickets = c.tickets[:0]
}

// pick removes and returns the r-selected element of *ids.
func (c *parClient) pick(ids *[]sla.ID, r int) (sla.ID, bool) {
	if len(*ids) == 0 {
		return "", false
	}
	i := r % len(*ids)
	id := (*ids)[i]
	*ids = append((*ids)[:i], (*ids)[i+1:]...)
	return id, true
}

// drain finishes every session this client still tracks.
func (c *parClient) drain() {
	b := c.cluster.Broker
	for _, id := range c.proposed {
		_ = b.Reject(id)
	}
	c.proposed = nil
	for _, id := range c.active {
		if err := b.Terminate(id, "drain"); err == nil {
			c.terminated++
		}
	}
	c.active = nil
	_ = b.BestEffortRelease("par-be" + strconv.Itoa(c.id))
}
