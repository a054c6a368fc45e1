package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/obs"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// This file is the scenario harness: a library of named traffic shapes
// (see scenarios.go) replayed against a full cluster by one serial,
// deterministic driver. Scenarios reuse the serial stress runs' determinism
// discipline — one manual clock, serial client behavior, seeded PRNG
// streams with fixed draw order — so a (scenario, seed, shards) triple
// produces a byte-identical report, except for the wall-clock latency
// block, which is kept under a single JSON key so CI can strip it before
// diffing (jq 'del(.latency)').

// OfferAction is a scenario client's reaction to a negotiated offer.
type OfferAction int

const (
	// OfferAccept confirms the offer immediately (the default).
	OfferAccept OfferAction = iota
	// OfferReject declines the offer explicitly.
	OfferReject
	// OfferAbandon walks away: the offer rides until the confirm window
	// expires it.
	OfferAbandon
	// OfferAcceptAtExpiry moves the clock to the offer's exact expiry
	// instant and only then tries to confirm — the lease-churn abuse.
	// The confirm timer fires during the clock move, so the accept
	// deterministically loses the race; the scenario asserts the broker
	// survives it cleanly.
	OfferAcceptAtExpiry
)

// Scenario is one named traffic shape plus the client behavior and
// assertions that give it teeth. Hooks are optional except Workload;
// nil hooks fall back to plain accept-and-hold clients.
type Scenario struct {
	Name  string
	About string
	// ConfirmWindow overrides the cluster's offer window (default 2m).
	ConfirmWindow time.Duration
	// Workload builds the trace generator, sized so the run performs
	// roughly cfg.Ops broker operations (~3 per negotiated arrival).
	// The driver forces Seed to cfg.Seed.
	Workload func(cfg ScenarioConfig) Workload
	// Shape rewrites arrival i after generation; rng is a dedicated
	// shaping stream (cfg.Seed+1) so trace and shape draws never
	// interleave.
	Shape func(cfg ScenarioConfig, rng *rand.Rand, i int, a Arrival) Arrival
	// Request builds the negotiation request for arrival i; nil uses
	// ScenarioRun.DefaultRequest. Not consulted for best-effort
	// arrivals, which go through the BestEffortRequest path.
	Request func(run *ScenarioRun, i int, a Arrival) core.Request
	// OnOffer picks the client's reaction to an offer; nil accepts.
	OnOffer func(run *ScenarioRun, i int, a Arrival, offer *core.Offer) OfferAction
	// AfterArrival runs after arrival i resolved (admitted reports the
	// outcome; id is empty for best-effort and failed arrivals) — the
	// place for renegotiations and other follow-on client behavior.
	AfterArrival func(run *ScenarioRun, i int, a Arrival, id sla.ID, admitted bool)
	// Verify asserts scenario-specific report properties after the
	// drain; a non-nil error lands in Report.VerifyErrors.
	Verify func(r *ScenarioReport) error
}

// ScenarioConfig sizes a scenario run.
type ScenarioConfig struct {
	// Seed drives every PRNG stream in the run.
	Seed int64
	// Ops targets the number of broker operations (default 6000).
	Ops int
	// Phases is the number of mid-run quiesce points (default 10).
	Phases int
	// Shards is the broker shard count (default 1).
	Shards int
	// Plan is the Algorithm-1 partition; defaults to the §5.6 one.
	Plan core.CapacityPlan
	// Obs receives the run's metrics; nil creates a private registry.
	Obs *obs.Registry
	// Prune, when set, compacts terminal state (broker sessions, GARA
	// reservations, GRAM jobs) at every quiesce and bounds the ledger —
	// the soak harness's working-set bound. Off by default so short
	// runs keep full post-mortem state.
	Prune bool
	// Policy names the broker's adaptation policy ("" = "paper").
	Policy string
	// ShadowPolicy, when set, consults the named candidate policy in
	// shadow at every broker decision point (see core.Config.ShadowPolicy).
	ShadowPolicy string
}

func (cfg ScenarioConfig) withDefaults() ScenarioConfig {
	if cfg.Ops <= 0 {
		cfg.Ops = 6000
	}
	if cfg.Phases <= 0 {
		cfg.Phases = 10
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Plan.Total().IsZero() {
		cfg.Plan = DefaultParallelPlan()
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	return cfg
}

// LatencySummary holds wall-clock admission-latency percentiles. It is
// the report's only non-deterministic block: strip it (jq
// 'del(.latency)') before byte-diffing reports across runs.
type LatencySummary struct {
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	Samples int     `json:"samples"`
}

// ScenarioReport is one scenario run's result. Everything outside
// Latency is deterministic for a (scenario, seed, shards, ops) tuple.
type ScenarioReport struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Arrivals int    `json:"arrivals"`
	// Ops counts broker API calls the driver actually made.
	Ops int64 `json:"ops"`

	Requested      int     `json:"requested"`
	Admitted       int     `json:"admitted"`
	Rejected       int     `json:"rejected"`
	ExpiredOffers  int     `json:"expired_offers"`
	Renegotiations int     `json:"renegotiations"`
	RenegFailures  int     `json:"reneg_failures"`
	Terminated     int     `json:"terminated"`
	AdmitRate      float64 `json:"admit_rate"`

	Degradations int64   `json:"degradations"`
	Restorations int64   `json:"restorations"`
	Promotions   int64   `json:"promotions"`
	Revenue      float64 `json:"revenue"`

	// Extras carries scenario-specific deterministic gauges (spike
	// ratios, budget refusals, boundary races…), keyed per scenario.
	Extras map[string]float64 `json:"extras,omitempty"`

	InvariantViolations int      `json:"invariant_violations"`
	Checks              int      `json:"checks"`
	Violations          []string `json:"violations,omitempty"`
	VerifyErrors        []string `json:"verify_errors,omitempty"`

	Latency *LatencySummary `json:"latency,omitempty"`
}

// Failed reports whether CI should gate the run red: any oracle
// violation or scenario assertion failure.
func (r *ScenarioReport) Failed() bool {
	return r.InvariantViolations > 0 || len(r.VerifyErrors) > 0
}

// departure is a scheduled session end (or best-effort release).
type departure struct {
	at     time.Time
	seq    int // creation order, the deterministic tie-break
	id     sla.ID
	client string // best-effort departures release by client
}

type departureHeap []departure

func (h departureHeap) Len() int { return len(h) }
func (h departureHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h departureHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *departureHeap) Push(x any)     { *h = append(*h, x.(departure)) }
func (h *departureHeap) Pop() any       { old := *h; n := len(old); d := old[n-1]; *h = old[:n-1]; return d }
func (h departureHeap) peek() departure { return h[0] }

// ScenarioRun is the driver state a scenario's hooks see.
type ScenarioRun struct {
	Cfg     ScenarioConfig
	Cluster *Cluster
	Clock   *clockx.Manual
	// RNG is the client-behavior stream (cfg.Seed+2), drawn only by
	// hooks — never by the driver — so a scenario's draws stay stable
	// when the driver changes.
	RNG *rand.Rand
	// Accounts are per-tenant budgets for economic scenarios; hooks
	// create entries on first use via Account.
	Accounts map[string]*pricing.Account
	Report   *ScenarioReport

	confirmWindow time.Duration
	departures    departureHeap
	depSeq        int
	// live holds negotiated sessions believed active, for hooks that
	// pick renegotiation targets; lazily compacted.
	live []sla.ID

	latencies []float64 // admission wall-clock ms, in call order

	// window aggregation for soak sampling (nil outside RunSoak).
	onOp func()
}

// Account returns the named tenant's budget account, creating it with
// the given limit on first use.
func (run *ScenarioRun) Account(tenant string, limit float64) *pricing.Account {
	if a, ok := run.Accounts[tenant]; ok {
		return a
	}
	a := pricing.NewAccount(limit)
	run.Accounts[tenant] = a
	return a
}

// Extra adds v to the named deterministic gauge.
func (run *ScenarioRun) Extra(key string, v float64) {
	if run.Report.Extras == nil {
		run.Report.Extras = make(map[string]float64)
	}
	run.Report.Extras[key] += v
}

// op counts one broker API call (and drives soak window sampling).
func (run *ScenarioRun) op() {
	run.Report.Ops++
	if run.onOp != nil {
		run.onOp()
	}
}

// LiveSessions returns the compacted list of sessions still active —
// the pool renegotiation hooks draw targets from.
func (run *ScenarioRun) LiveSessions() []sla.ID {
	kept := run.live[:0]
	for _, id := range run.live {
		if doc, err := run.Cluster.Broker.Session(id); err == nil && !doc.State.Terminal() {
			kept = append(kept, id)
		}
	}
	run.live = kept
	return run.live
}

// DefaultRequest is the stock request for an arrival: guaranteed
// arrivals ask exact capacity, controlled-load arrivals a [half, full]
// range with the arrival's willingness flags.
func (run *ScenarioRun) DefaultRequest(i int, a Arrival) core.Request {
	now := run.Clock.Now()
	req := core.Request{
		Service: "simulation",
		Client:  fmt.Sprintf("tenant-%02d", i%8),
		Class:   a.Class,
		Start:   now,
		End:     now.Add(a.Hold),
	}
	switch a.Class {
	case sla.ClassControlledLoad:
		floor := math.Max(1, math.Floor(a.Nodes/2))
		req.Spec = sla.NewSpec(sla.Range(resource.CPU, floor, a.Nodes))
		req.AcceptDegradation = a.Willing
		req.PromotionOptIn = a.Willing
	default:
		req.Spec = sla.NewSpec(sla.Exact(resource.CPU, a.Nodes))
		req.AcceptDegradation = a.Willing
	}
	return req
}

// Scenarios returns the built-in library, sorted by name.
func Scenarios() []Scenario {
	out := append([]Scenario(nil), builtinScenarios...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupScenario finds a built-in scenario by name.
func LookupScenario(name string) (Scenario, bool) {
	for _, sc := range builtinScenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// RunScenario replays one scenario and returns its report. A non-nil
// error means the harness itself failed; oracle violations and scenario
// assertion failures land in the report (see ScenarioReport.Failed) so
// CI always has a report to gate on.
func RunScenario(sc Scenario, cfg ScenarioConfig) (*ScenarioReport, error) {
	run, err := newScenarioRun(sc, cfg)
	if err != nil {
		return nil, err
	}
	defer run.Cluster.Close()
	if err := run.play(sc, nil); err != nil {
		return run.Report, err
	}
	run.finish(sc)
	return run.Report, nil
}

// RunScenarioObserved is RunScenario with the soak harness's quiesce hook
// exposed: afterQuiesce (when non-nil) runs at every phase barrier with
// the live run, letting a caller sample mid-run state — the shadow lab
// uses it to average allocator utilization across phases.
func RunScenarioObserved(sc Scenario, cfg ScenarioConfig, afterQuiesce func(run *ScenarioRun, phase int)) (*ScenarioReport, error) {
	run, err := newScenarioRun(sc, cfg)
	if err != nil {
		return nil, err
	}
	defer run.Cluster.Close()
	var hook func(int)
	if afterQuiesce != nil {
		hook = func(phase int) { afterQuiesce(run, phase) }
	}
	if err := run.play(sc, hook); err != nil {
		return run.Report, err
	}
	run.finish(sc)
	return run.Report, nil
}

func newScenarioRun(sc Scenario, cfg ScenarioConfig) (*ScenarioRun, error) {
	cfg = cfg.withDefaults()
	confirm := sc.ConfirmWindow
	if confirm <= 0 {
		confirm = 2 * time.Minute
	}
	clock := clockx.NewManual(Epoch)
	cluster, err := NewCluster(ClusterConfig{
		Plan:          cfg.Plan,
		Shards:        cfg.Shards,
		ConfirmWindow: confirm,
		Obs:           cfg.Obs,
		Clock:         clock,
		Policy:        cfg.Policy,
		ShadowPolicy:  cfg.ShadowPolicy,
	})
	if err != nil {
		return nil, err
	}
	return &ScenarioRun{
		Cfg:           cfg,
		Cluster:       cluster,
		Clock:         clock,
		RNG:           rand.New(rand.NewSource(cfg.Seed + 2)),
		Accounts:      make(map[string]*pricing.Account),
		confirmWindow: confirm,
		Report: &ScenarioReport{
			Scenario: sc.Name,
			Seed:     cfg.Seed,
			Shards:   cfg.Shards,
		},
	}, nil
}

// play generates the trace and replays it; quiesce runs the oracle at
// every phase barrier and afterQuiesce (when non-nil) lets the soak
// harness sample between phases.
func (run *ScenarioRun) play(sc Scenario, afterQuiesce func(phase int)) error {
	cfg := run.Cfg
	wl := sc.Workload(cfg)
	wl.Seed = cfg.Seed
	trace := wl.Trace()
	if sc.Shape != nil {
		shapeRNG := rand.New(rand.NewSource(cfg.Seed + 1))
		for i := range trace {
			trace[i] = sc.Shape(cfg, shapeRNG, i, trace[i])
		}
	}
	run.Report.Arrivals = len(trace)
	if len(trace) == 0 {
		return fmt.Errorf("sim: scenario %q generated an empty trace", sc.Name)
	}

	qEvery := len(trace) / cfg.Phases
	if qEvery < 1 {
		qEvery = 1
	}
	for i, a := range trace {
		now := Epoch.Add(a.At)
		run.processDepartures(now)
		run.Clock.Set(now)
		run.arrive(sc, i, a)
		if (i+1)%qEvery == 0 {
			phase := (i + 1) / qEvery
			run.quiesce(fmt.Sprintf("phase %d", phase), false)
			if afterQuiesce != nil {
				afterQuiesce(phase)
			}
		}
	}

	// Drain: run out the departure queue, expire everything else, then
	// hold the final oracle pass to the stricter drain-only rules.
	run.processDepartures(Epoch.Add(wl.Duration).Add(1000 * time.Hour))
	run.Clock.Advance(72 * time.Hour)
	run.op()
	run.Cluster.Broker.ExpireDue()
	run.Cluster.Broker.ReconcileReservations()
	run.quiesce("post-drain", true)
	return nil
}

func (run *ScenarioRun) processDepartures(until time.Time) {
	b := run.Cluster.Broker
	for len(run.departures) > 0 && !run.departures.peek().at.After(until) {
		d := heap.Pop(&run.departures).(departure)
		run.Clock.Set(d.at)
		run.op()
		if d.client != "" {
			_ = b.BestEffortRelease(d.client)
			continue
		}
		if err := b.Terminate(d.id, "hold elapsed"); err == nil {
			run.Report.Terminated++
		}
	}
}

func (run *ScenarioRun) arrive(sc Scenario, i int, a Arrival) {
	b := run.Cluster.Broker
	r := run.Report

	if a.Class == sla.ClassBestEffort {
		client := fmt.Sprintf("be-%d", i)
		run.op()
		r.Requested++
		if err := b.BestEffortRequest(client, resource.Nodes(a.Nodes)); err != nil {
			r.Rejected++
			if sc.AfterArrival != nil {
				sc.AfterArrival(run, i, a, "", false)
			}
			return
		}
		r.Admitted++
		run.depSeq++
		heap.Push(&run.departures, departure{at: run.Clock.Now().Add(a.Hold), seq: run.depSeq, client: client})
		if sc.AfterArrival != nil {
			sc.AfterArrival(run, i, a, "", true)
		}
		return
	}

	var req core.Request
	if sc.Request != nil {
		req = sc.Request(run, i, a)
	} else {
		req = run.DefaultRequest(i, a)
	}
	run.op()
	r.Requested++
	wallStart := time.Now()
	offer, err := b.RequestService(req)
	run.latencies = append(run.latencies, float64(time.Since(wallStart))/float64(time.Millisecond))
	if err != nil {
		r.Rejected++
		if errors.Is(err, core.ErrOverBudget) {
			// The broker refused before an offer was even made: the
			// request's budget does not cover the floor price. The
			// economic scenario gates on this counter.
			run.Extra("over_budget_rejects", 1)
		}
		if sc.AfterArrival != nil {
			sc.AfterArrival(run, i, a, "", false)
		}
		return
	}

	action := OfferAccept
	if sc.OnOffer != nil {
		action = sc.OnOffer(run, i, a, offer)
	}
	id := offer.SLA.ID
	switch action {
	case OfferReject:
		run.op()
		_ = b.Reject(id)
		r.Rejected++
		id = ""
	case OfferAbandon:
		// The confirm timer expires the offer when the clock next moves
		// past the window; count it now — deterministically — rather
		// than reverse-engineering it from broker state later.
		r.ExpiredOffers++
		id = ""
	case OfferAcceptAtExpiry:
		run.Clock.Set(offer.Expires)
		run.op()
		if err := b.Accept(id); err != nil {
			// The timer fired during the Set: the offer expired a
			// virtual instant before the accept. This is the boundary
			// race the lease-churn scenario exists to hammer.
			r.ExpiredOffers++
			run.Extra("boundary_races", 1)
			id = ""
		} else {
			r.Admitted++
			run.admitted(id, offer.SLA.End)
		}
	default:
		run.op()
		if err := b.Accept(id); err != nil {
			r.Rejected++
			id = ""
		} else {
			r.Admitted++
			run.admitted(id, offer.SLA.End)
		}
	}
	if sc.AfterArrival != nil {
		sc.AfterArrival(run, i, a, id, id != "")
	}
}

func (run *ScenarioRun) admitted(id sla.ID, end time.Time) {
	run.depSeq++
	heap.Push(&run.departures, departure{at: end, seq: run.depSeq, id: id})
	run.live = append(run.live, id)
}

// Renegotiate is the hook-facing renegotiation wrapper: it counts the
// attempt, the failure and the op.
func (run *ScenarioRun) Renegotiate(id sla.ID, spec sla.Spec) bool {
	run.op()
	run.Report.Renegotiations++
	if _, err := run.Cluster.Broker.Renegotiate(id, spec); err != nil {
		run.Report.RenegFailures++
		return false
	}
	return true
}

func (run *ScenarioRun) quiesce(stage string, final bool) {
	b := run.Cluster.Broker
	now := run.Clock.Now()
	run.op()
	b.ExpireDue()
	if run.Cfg.Prune {
		b.PruneTerminal()
		run.Cluster.GARA.PruneCanceled()
		run.Cluster.GRAM.PruneTerminal()
	}
	record := func(err error) {
		recordViolations(&run.Report.InvariantViolations, &run.Report.Violations, stage, err)
	}
	run.Report.Checks++
	record(invariant.CheckAll(b, now, run.Cluster.Pool))
	record(invariant.CheckReservations(b, run.Cluster.GARA, invariant.ReservationCheck{Final: final}))
	record(invariant.CheckLifecycle(b, now, invariant.LifecycleCheck{ConfirmWindow: run.confirmWindow}))
}

func (run *ScenarioRun) finish(sc Scenario) {
	r := run.Report
	if r.Requested > 0 {
		r.AdmitRate = float64(r.Admitted) / float64(r.Requested)
	}
	lifecycle := func(event string) int64 {
		return int64(run.Cfg.Obs.Counter("gqosm_broker_lifecycle_total",
			"SLA lifecycle events by kind", "event", event).Value())
	}
	r.Degradations = lifecycle("degrade")
	r.Restorations = lifecycle("restore")
	r.Promotions = lifecycle("promote")
	r.Revenue = run.Cluster.Broker.Ledger().NetRevenue()
	r.Latency = summarizeLatency(run.latencies)
	if sc.Verify != nil {
		if err := sc.Verify(r); err != nil {
			r.VerifyErrors = append(r.VerifyErrors, err.Error())
		}
	}
}

func summarizeLatency(ms []float64) *LatencySummary {
	if len(ms) == 0 {
		return nil
	}
	s := sortedCopy(ms)
	return &LatencySummary{
		P50MS:   percentile(s, 0.50),
		P95MS:   percentile(s, 0.95),
		P99MS:   percentile(s, 0.99),
		Samples: len(s),
	}
}

// sortedCopy returns an ascending copy of v, the input percentile reads.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile reads the nearest-rank percentile from an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
