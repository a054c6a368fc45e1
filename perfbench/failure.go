package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/nrm"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// failure-adapt: one driver on the manual clock, with DSRT and NRM flows
// on. The run is a sequence of episodes, each a fresh deployment seeded
// by (seed, episode): a population of live sessions is admitted,
// accepted and invoked, then every cycle fails capacity past the
// adaptive reserve (and congests the site-c link), sweeps NRM checks and
// Verify over the live sessions until every one conforms or is gone
// (scenario 3: RM rectify, the degradation ladder, termination), then
// recovers the capacity and runs Verify and the optimizer (scenario 2:
// restoration, upgrades, promotions), and re-admits to the population
// size. Episode 0's adaptation counts are a pure function of the seed.

var failurePlan = core.CapacityPlan{
	Guaranteed: resource.Capacity{CPU: 128, MemoryMB: 49152, DiskGB: 480, BandwidthMbps: 600},
	Adaptive:   resource.Capacity{CPU: 32, MemoryMB: 8192, DiskGB: 80, BandwidthMbps: 200},
	BestEffort: resource.Capacity{CPU: 32, MemoryMB: 8192, DiskGB: 80, BandwidthMbps: 200},
}

const (
	failurePopulation = 48
	failureCycles     = 8
	failureDSRT       = 8
	failureMaxSweeps  = 24
	failureLimit      = 2 * time.Millisecond
	failureMaxCPU     = 4
)

// cycleSpec is one failure/recovery cycle of an episode.
type cycleSpec struct {
	OfflineCPU float64 // CPU taken offline, past the adaptive reserve
	Congestion float64 // delivered-bandwidth factor on the site-a/site-c link; 1 = none
	BENodes    int     // best-effort demand borrowed before the failure
}

// episode is one seeded deployment's script.
type episode struct {
	population []core.Request
	cycles     []cycleSpec
	refill     *opGen
	seq        int
}

func newEpisode(seed int64, n int, tiny bool) *episode {
	rng := rand.New(rand.NewSource(seed*7_777_777 + int64(n)*104_729 + 3))
	ep := &episode{refill: newOpGen(seed, 1000+n)}
	pop, cycles := failurePopulation, failureCycles
	if tiny {
		pop, cycles = 20, 2
	}
	for i := 0; i < pop; i++ {
		ep.population = append(ep.population, ep.request(rng.Intn(1<<16), rng.Intn(1<<16), rng.Intn(1<<16)))
	}
	// Every episode runs the same grid of failures past the reserve, half
	// of them with a congested site-c link, in a seeded order: the seed
	// varies the population and the order, not how hard the failures hit.
	order := rng.Perm(failureCycles)
	for i := 0; i < cycles; i++ {
		k := order[i]
		c := cycleSpec{
			OfflineCPU: failurePlan.Adaptive.CPU + float64(4+3*k),
			Congestion: 1,
			BENodes:    8 + 2*order[(i+1)%failureCycles],
		}
		if k%2 == 1 {
			c.Congestion = 0.5 + 0.1*float64(k/2)
		}
		ep.cycles = append(ep.cycles, c)
	}
	return ep
}

// request builds the episode's next ask: compute asks as in the other
// workloads, a fifth of them also carrying a guaranteed network flow
// from site-b or site-c into site-a.
func (ep *episode) request(r1, r2, r3 int) core.Request {
	ep.seq++
	req := computeRequest(draw{r1: r1, r2: r2, r3: r3}, epoch, "f"+strconv.Itoa(ep.seq), failureMaxCPU)
	req.End = epoch.Add(48 * time.Hour)
	if r3%5 == 0 {
		src := "135.200.50." + strconv.Itoa(10+r3%200)
		if (r3>>3)%2 == 0 {
			src = "10.10.3." + strconv.Itoa(10+r3%200)
		}
		bw := float64(5 + (r3>>4)%16)
		req.Spec.Params[resource.BandwidthMbps] = sla.Exact(resource.BandwidthMbps, bw)
		req.Spec.SourceIP, req.Spec.DestIP = src, "192.200.168.33"
	}
	return req
}

// adaptDriver runs episodes against one deployment at a time.
type adaptDriver struct {
	rc    runCtx
	w     *window
	calls *callStats
	st    *stack
	live  map[sla.ID]*lifeSession
	be    []string
	// sweeps counts Verify sweeps per failure event, for the report.
	sweeps []float64
	// oscillations sums, over failure events, the live sessions past
	// the termination threshold when the event settled.
	oscillations int64
}

func runFailure(rc runCtx) (*result, error) {
	w := newWindow(failureLimit)
	w.tr = rc.tr
	d := &adaptDriver{rc: rc, w: w, calls: newCallStats()}
	heap := startHeapSampler()
	var counts *adaptCounts
	var total counterDelta
	var measured, first time.Duration
	for n := 0; n == 0 || measured < rc.dur; n++ {
		c, delta, spent, err := d.episode(n)
		if err != nil {
			heap.finish()
			return nil, fmt.Errorf("episode %d: %w", n, err)
		}
		if n == 0 {
			counts, first = c, spent
			total = delta
		} else {
			total = total.add(delta)
		}
		measured += spent
	}
	w.heapPeakMB = heap.finish()
	w.seconds = measured.Seconds()
	w.delta = total
	// Episode 0 again, untraced and into a scratch window: its
	// adaptation counts are a function of the seed alone and must repeat
	// exactly.
	saved := *d
	d.w, d.rc.tr = newWindow(failureLimit), nil
	again, _, _, err := d.episode(0)
	d.w, d.rc, d.sweeps, d.oscillations = saved.w, saved.rc, saved.sweeps, saved.oscillations
	if err != nil {
		return nil, fmt.Errorf("episode 0 replay: %w", err)
	}
	if *again != *counts {
		return nil, gatef("episode 0 replay changed the adaptation counts: %+v, then %+v", counts, again)
	}
	if err := checkCalls(d.calls); err != nil {
		return nil, err
	}
	if err := coldRestarts(w, d.st); err != nil {
		return nil, err
	}
	d.st.close()
	return &result{
		e2e: w.e2e(), layers: w.layers(),
		attempted: d.calls.attempted.Load(), failed: d.calls.failed.Load(),
		counts: counts, cacheHits: counts.CacheHits, cacheMisses: counts.CacheMisses,
		unitCost: first.Seconds(),
		notes: map[string]any{"adapt_counts_episode0": counts, "failure_events": w.events.Load(),
			"sweeps_p50": median(d.sweeps), "sweeps_max": quantile(d.sweeps, 1),
			"ladder_oscillations": d.oscillations},
	}, nil
}

// episode runs one deployment from setup to drain, returning its
// adaptation counts, its counter deltas over the cycles and the time
// the cycles took. The deployment of the last episode stays open in
// d.st for the recovery measurement.
func (d *adaptDriver) episode(n int) (*adaptCounts, counterDelta, time.Duration, error) {
	if d.st != nil {
		d.st.close()
		d.st = nil
	}
	ep := newEpisode(d.rc.seed, n, d.rc.tiny)
	start := time.Now()
	st, err := newStack(stackConfig{Plan: failurePlan, Shards: 1, Network: true, DSRT: failureDSRT, Tracer: d.rc.tr})
	if err != nil {
		return nil, counterDelta{}, 0, fmt.Errorf("setup: %w", err)
	}
	d.st = st
	d.live = make(map[sla.ID]*lifeSession)
	for _, req := range ep.population {
		d.admit(req, false)
	}
	d.w.setup = append(d.w.setup, time.Since(start).Seconds())

	before := takeSnap(st.obs, st.broker)
	counts := &adaptCounts{}
	var spent time.Duration
	d.rc.tr.record(true)
	for _, c := range ep.cycles {
		t0 := time.Now()
		if err := d.cycle(ep, c, counts); err != nil {
			return nil, counterDelta{}, 0, err
		}
		spent += time.Since(t0)
	}
	d.rc.tr.record(false)
	after := takeSnap(st.obs, st.broker)
	delta := before.to(after)
	counts.Degraded = delta.lifecycle["degrade"]
	counts.Terminated = delta.lifecycle["terminate"]
	counts.Promotions = delta.lifecycle["promote"]
	counts.Violations = delta.lifecycle["violation"]
	counts.CacheHits, counts.CacheMisses = delta.cacheHits, delta.cacheMisses
	return counts, delta, spent, d.drain()
}

// admit requests, accepts and invokes one session; timed reports the
// admission into the window. A refused request admits nothing.
func (d *adaptDriver) admit(req core.Request, timed bool) {
	b, tr := d.st.broker, d.st.tr
	tk := tr.begin("core.request")
	start := time.Now()
	offer, err := b.RequestService(req)
	dur := time.Since(start)
	var id sla.ID
	if err == nil {
		id = offer.SLA.ID
	}
	tr.finish(tk, string(id))
	d.calls.note("request", err, isRefusal(err))
	if timed {
		d.w.admission(dur, err == nil)
	}
	if err != nil {
		return
	}
	s := &lifeSession{id: id, class: req.Class, us: float64(dur.Nanoseconds()) / 1e3}
	tk = tr.begin("core.accept")
	start = time.Now()
	err = b.Accept(id)
	s.us += float64(time.Since(start).Nanoseconds()) / 1e3
	tr.finish(tk, string(id))
	d.calls.note("accept", err, false)
	if err != nil {
		return
	}
	tk = tr.begin("core.invoke")
	start = time.Now()
	_, err = b.Invoke(id)
	s.us += float64(time.Since(start).Nanoseconds()) / 1e3
	tr.finish(tk, string(id))
	d.calls.note("invoke", err, false)
	d.live[id] = s
}

// liveIDs returns the live sessions in ID order, so every sweep visits
// them in the same order on every run.
func (d *adaptDriver) liveIDs() []sla.ID {
	ids := make([]sla.ID, 0, len(d.live))
	for id := range d.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sweep runs the monitor's NRM check and a Verify over every live
// session, forgetting sessions adaptation terminated. It reports whether
// every remaining session conforms.
func (d *adaptDriver) sweep() bool {
	b, tr := d.st.broker, d.st.tr
	d.st.nrm.CheckAll(d.st.clock.Now())
	d.calls.note("nrm-check", nil, false)
	all := true
	for _, id := range d.liveIDs() {
		s := d.live[id]
		tk := tr.begin("core.verify")
		start := time.Now()
		rep, err := b.Verify(id)
		s.us += float64(time.Since(start).Nanoseconds()) / 1e3
		tr.finish(tk, string(id))
		gone := lapsed(b, id, err)
		d.calls.note("verify", err, gone)
		if gone {
			d.w.session.addUS(s.us)
			d.w.sessionsDone.Add(1)
			delete(d.live, id)
			continue
		}
		if err == nil && !rep.Conforms {
			all = false
		}
	}
	// A session the ladder terminated during this sweep may have been
	// visited before its termination; catch it here.
	for _, id := range d.liveIDs() {
		if doc, err := b.Session(id); err == nil && doc.State.Terminal() {
			s := d.live[id]
			d.w.session.addUS(s.us)
			d.w.sessionsDone.Add(1)
			delete(d.live, id)
		}
	}
	return all
}

// fingerprint renders every live session's adaptation state: lifecycle
// state, degraded flag and allocation.
// over counts live sessions with three or more violations: past the
// ladder's termination threshold without a termination.
func (d *adaptDriver) fingerprint() (fp string, over int64) {
	alloc := make(map[sla.ID]resource.Capacity, len(d.live))
	for _, doc := range d.st.broker.Sessions(nil) {
		alloc[doc.ID] = doc.Allocated
	}
	var sb strings.Builder
	for _, info := range d.st.broker.SessionInfos() {
		if _, ok := d.live[info.ID]; ok {
			fmt.Fprintf(&sb, "%s %d %v %v\n", info.ID, info.State, info.Degraded, alloc[info.ID])
			if info.Violations >= 3 {
				over++
			}
		}
	}
	return sb.String(), over
}

func (d *adaptDriver) cycle(ep *episode, c cycleSpec, counts *adaptCounts) error {
	b, tr, st := d.st.broker, d.st.tr, d.st
	// Best-effort borrowers the failure will preempt.
	d.be = d.be[:0]
	for i := 0; i < 3; i++ {
		client := "be-" + strconv.Itoa(i)
		err := b.BestEffortRequest(client, resource.Nodes(float64(c.BENodes)))
		d.calls.note("be-request", err, isRefusal(err))
		if err == nil {
			d.be = append(d.be, client)
		}
	}

	// Scenario 3: failure past the adaptive reserve.
	start := time.Now()
	tk := tr.begin("core.notify_failure")
	pre := b.NotifyFailure(resource.Nodes(c.OfflineCPU))
	tr.finish(tk, "")
	d.calls.note("failure", nil, false)
	if c.Congestion < 1 {
		if err := st.topo.SetCongestion("site-a", "site-c", nrm.Congestion{BandwidthFactor: c.Congestion}); err != nil {
			return err
		}
	}
	// The event is adapted once a sweep finds every session conforming,
	// or leaves every session's state and allocation as it found them:
	// each remaining session is then at the level the ladder settled it
	// on (rectified by the RM, at its alternative QoS or floor), and
	// every session the ladder would end is gone. Violation counts are
	// left out of the comparison: under persistent link congestion the
	// ladder switches a session to its alternative QoS and restores it
	// again within every sweep, counting a violation each time without
	// ever terminating it (reported as ladder_oscillations).
	sweeps, prev := 0, ""
	for {
		sweeps++
		if d.sweep() {
			break
		}
		fp, over := d.fingerprint()
		if fp == prev {
			d.oscillations += over
			break
		}
		prev = fp
		if sweeps == failureMaxSweeps {
			return gatef("adaptation did not settle in %d sweeps (%d sessions live)", sweeps, len(d.live))
		}
	}
	d.w.adapt.add(time.Since(start))
	d.w.events.Add(1)
	d.w.preempted.Add(int64(len(pre)))
	d.sweeps = append(d.sweeps, float64(sweeps))
	counts.Events++
	counts.Preempted += int64(len(pre))
	if err := invariant.Check(b); err != nil {
		return gatef("invariants after adaptation: %v", err)
	}

	// Scenario 2: capacity returns.
	start = time.Now()
	tk = tr.begin("core.notify_failure")
	b.NotifyFailure(resource.Capacity{})
	tr.finish(tk, "")
	d.calls.note("recover", nil, false)
	if c.Congestion < 1 {
		if err := st.topo.SetCongestion("site-a", "site-c", nrm.Congestion{}); err != nil {
			return err
		}
	}
	// The borrowers leave; each release runs scenario 2 (restorations,
	// the optimizer, promotion offers) on the returned capacity.
	for _, client := range d.be {
		err := b.BestEffortRelease(client)
		d.calls.note("be-release", err, errors.Is(err, core.ErrUnknownUser))
	}
	for _, p := range b.Promotions() {
		err := b.AcceptPromotion(p.SLA)
		d.calls.note("promotion", err, isRefusal(err) || errors.Is(err, core.ErrBadState) || lapsed(b, p.SLA, err))
	}
	d.sweep()
	tk = tr.begin("core.optimizer")
	_, err := b.RunOptimizer()
	tr.finish(tk, "")
	d.calls.note("optimize", err, isRefusal(err))
	d.w.restore.add(time.Since(start))
	if err := invariant.Check(b); err != nil {
		return gatef("invariants after restoration: %v", err)
	}

	// Re-admit to the population size.
	target := len(ep.population)
	for tries, missing := 0, target-len(d.live); len(d.live) < target && tries < 2*missing; tries++ {
		g := ep.refill.next()
		d.admit(ep.request(g.r1, g.r2, g.r3), true)
	}
	st.clock.Advance(time.Minute)
	return nil
}

// drain ends every session of the episode and runs the drain gates.
func (d *adaptDriver) drain() error {
	b := d.st.broker
	for _, id := range d.liveIDs() {
		err := b.Terminate(id, "drain")
		d.calls.note("terminate", err, lapsed(b, id, err))
	}
	d.live = nil
	return checkDrained(d.st)
}
