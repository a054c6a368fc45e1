package core

// This file is the group-commit admission intake: a bounded per-shard
// queue that coalesces compatible admissions and commits them in one
// allocator pass. The direct path (RequestService) pays per request for
// a lock acquisition, an allocator rebalance + view publication, two
// activity-log fmt.Sprintf renders and a WAL fsync; the intake pays each
// of those once per BATCH and keeps everything else — quality clamping,
// budget checks, ID issue order, GARA reservation, per-session confirm
// timers, per-session WAL records — identical to the direct path, so a
// batch of size 1 produces byte-identical broker state.
//
// Flush discipline. Flushes are driven three ways, all deterministic on
// the manual clock: (1) a queue reaching MaxBatch is flushed inline by
// the submitter that filled it; (2) FlushIntake drains every shard in
// index order — the serial harnesses' quiesce primitive; (3) when
// FlushEvery > 0, an idle timer armed on first enqueue flushes whatever
// accumulated (it re-arms on the next enqueue, never free-runs, so a
// 72-hour drain Advance fires it at most once). Concurrent callers use
// SubmitWait: the first waiter to take the shard's flush mutex becomes
// the group-commit leader and drains everything queued behind it —
// batches form naturally under contention, exactly like a WAL group
// commit.
//
// Failure semantics. Each member of a batch is individually atomic: it
// either installs completely (grant + reservation + session + route +
// journal record) or is rolled back completely and its ticket fails —
// a flushed batch never leaves a partially installed admission (the
// invariant oracle's proposed-no-reservation rule checks this). Members
// the batch allocator pass refuses fall back to the direct per-request
// chain (scenario-1 compensation on the chosen shard, then the
// cross-shard placement loop), so intake admission decisions equal
// direct-path decisions. The batch's WAL append is one fsync over
// per-session records; a crash mid-batch preserves a CRC-clean prefix,
// so recovery semantics are unchanged (see wal.AppendBatch).

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/gara"
	"gqosm/internal/obs"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// ErrIntakeFull is the intake's backpressure signal: the target shard's
// queue is at capacity. Callers shed load or retry after a flush; the
// JSON transport maps it to 429.
var ErrIntakeFull = errors.New("core: intake queue full")

// errIntakeDisabled is returned by Submit on a broker built without
// Config.Intake.Enabled.
var errIntakeDisabled = errors.New("core: intake not enabled")

// IntakeConfig enables and sizes the group-commit admission intake.
type IntakeConfig struct {
	// Enabled turns the intake on. Off (the zero value) keeps the
	// historical broker: Submit fails and RequestService is the only
	// admission path.
	Enabled bool
	// MaxBatch caps how many queued admissions one flush drains into a
	// single allocator pass (default 32). A queue reaching MaxBatch is
	// flushed inline by the submitter that filled it.
	MaxBatch int
	// Depth bounds each shard's queue; a Submit beyond it is refused
	// with ErrIntakeFull (default 256).
	Depth int
	// FlushEvery, when > 0, bounds how long a queued admission can wait
	// for company: a timer armed on the first enqueue after an idle
	// period flushes whatever accumulated. 0 (the default) relies on
	// size-triggered flushes, SubmitWait leaders and explicit
	// FlushIntake calls only.
	FlushEvery time.Duration
}

func (c IntakeConfig) withDefaults() IntakeConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Depth <= 0 {
		c.Depth = 256
	}
	return c
}

// IntakeTicket is a submitted admission's future. Exactly one of
// (offer, err) is set when done closes.
type IntakeTicket struct {
	done  chan struct{}
	offer *Offer
	err   error
	shard int
}

// Wait blocks until the admission is flushed (or the broker shuts
// down) and returns its outcome.
func (t *IntakeTicket) Wait() (*Offer, error) {
	<-t.done
	return t.offer, t.err
}

// Resolved reports whether the ticket's outcome is already available.
func (t *IntakeTicket) Resolved() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

func (t *IntakeTicket) fulfill(o *Offer) { t.offer = o; close(t.done) }
func (t *IntakeTicket) fail(err error)   { t.err = err; close(t.done) }

// intakeEntry is one queued admission with its submit-time discovery
// result, so the flush never re-runs discovery.
type intakeEntry struct {
	req    Request
	floor  resource.Capacity
	key    registry.Key
	ticket *IntakeTicket
}

// shardQueue is one shard's bounded intake queue.
type shardQueue struct {
	mu    sync.Mutex
	queue []*intakeEntry
}

func (q *shardQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue)
}

// intake is the broker-side machinery; nil on brokers built without it.
type intake struct {
	b   *Broker
	cfg IntakeConfig

	queues []*shardQueue
	// flushMu serializes flushes per shard — the group-commit leader
	// lock. A waiter blocked on it becomes the next leader and drains
	// everything queued meanwhile. It is held across the allocator,
	// GARA and install stages but never while blocking on a queue's mu,
	// so submitters keep enqueueing under a running flush.
	flushMu []sync.Mutex

	// timerMu guards the single idle-flush timer (armed only when
	// FlushEvery > 0 and at most one pending at a time, so a long
	// manual-clock Advance fires it once, not once per period).
	timerMu sync.Mutex
	timer   clockx.Timer

	submitted    *obs.Counter
	rejectedFull *obs.Counter
	flushes      *obs.Counter
	batchSize    *obs.Histogram
}

func newIntake(b *Broker, cfg IntakeConfig, reg *obs.Registry) *intake {
	in := &intake{
		b:       b,
		cfg:     cfg.withDefaults(),
		queues:  make([]*shardQueue, len(b.shards)),
		flushMu: make([]sync.Mutex, len(b.shards)),
		submitted: reg.Counter("gqosm_intake_submitted_total",
			"Admissions accepted into the intake queues"),
		rejectedFull: reg.Counter("gqosm_intake_rejected_total",
			"Admissions refused with ErrIntakeFull (queue backpressure)"),
		flushes: reg.Counter("gqosm_intake_flushes_total",
			"Group-commit flushes executed"),
		batchSize: reg.Histogram("gqosm_intake_batch_size",
			"Admissions per group-commit flush",
			[]float64{1, 2, 4, 8, 16, 32, 64}),
	}
	for i := range in.queues {
		in.queues[i] = &shardQueue{}
		q := in.queues[i]
		reg.GaugeFunc("gqosm_intake_queue_depth",
			"Queued admissions awaiting a group-commit flush, per shard",
			func() float64 { return float64(q.depth()) },
			"shard", shardLabel(i))
	}
	return in
}

// IntakeEnabled reports whether the group-commit intake is on.
func (b *Broker) IntakeEnabled() bool { return b.intake != nil }

// IntakePending counts admissions sitting in the intake queues (0 when
// the intake is disabled). Harness quiesce points require it to be 0 —
// every submitted admission was flushed.
func (b *Broker) IntakePending() int {
	if b.intake == nil {
		return 0
	}
	n := 0
	for _, q := range b.intake.queues {
		n += q.depth()
	}
	return n
}

// Submit enqueues an admission on its placement shard's intake queue
// and returns a ticket for the outcome. Validation, the closed /
// recovering gates and discovery run inline (their failures are
// immediate, exactly as on the direct path); the allocator pass, GARA
// reservation and session install happen at the next flush. A full
// queue refuses with ErrIntakeFull — the backpressure contract.
func (b *Broker) Submit(req Request) (*IntakeTicket, error) {
	in := b.intake
	if in == nil {
		return nil, errIntakeDisabled
	}
	if err := req.Validate(); err != nil {
		b.met.requestErrors.Inc()
		return nil, err
	}
	if b.closed.Load() {
		b.met.requestErrors.Inc()
		return nil, ErrClosed
	}
	if b.recovering.Load() {
		b.met.requestErrors.Inc()
		return nil, ErrPeerUnavailable
	}
	floor := req.Spec.Floor()
	key, err := b.discover(req, floor)
	if err != nil {
		b.met.requestErrors.Inc()
		return nil, err
	}

	// Placement at submit time against the published load views; the
	// flush commits on this shard and the fallback chain still covers
	// capacity refusals, mirroring the direct path's order.
	si := b.placementOrder(req.ShardHint, floor)[0].index
	t := &IntakeTicket{done: make(chan struct{}), shard: si}
	q := in.queues[si]
	q.mu.Lock()
	if len(q.queue) >= in.cfg.Depth {
		q.mu.Unlock()
		in.rejectedFull.Inc()
		b.met.requestErrors.Inc()
		return nil, fmt.Errorf("%w: shard %d at depth %d", ErrIntakeFull, si, in.cfg.Depth)
	}
	q.queue = append(q.queue, &intakeEntry{req: req, floor: floor, key: key, ticket: t})
	depth := len(q.queue)
	q.mu.Unlock()
	in.submitted.Inc()

	if b.closed.Load() {
		// The broker shut down between the gate check and the enqueue;
		// drain so the ticket cannot hang (idempotent with close()).
		in.failQueued(ErrClosed)
		return t, nil
	}
	if depth >= in.cfg.MaxBatch {
		in.flushShard(si)
	} else {
		in.armTimer()
	}
	return t, nil
}

// SubmitWait is the concurrent transport's admission call: enqueue,
// then either ride a running flush or become the group-commit leader.
// Under contention the first waiter into the flush mutex drains every
// entry queued behind the running flush — one allocator pass for all of
// them. With no contention it degenerates to a batch of 1 with direct-
// path outcomes.
func (b *Broker) SubmitWait(req Request) (*Offer, error) {
	t, err := b.Submit(req)
	if err != nil {
		return nil, err
	}
	if !t.Resolved() {
		b.intake.flushShard(t.shard)
	}
	return t.Wait()
}

// FlushIntake drains every shard's intake queue now, in shard index
// order — the deterministic flush the serial harnesses and the idle
// timer use.
func (b *Broker) FlushIntake() {
	if b.intake == nil {
		return
	}
	for si := range b.intake.queues {
		b.intake.flushShard(si)
	}
}

// flushShard takes the shard's leader lock and drains its queue in
// MaxBatch slices until empty.
func (in *intake) flushShard(si int) {
	in.flushMu[si].Lock()
	defer in.flushMu[si].Unlock()
	for {
		q := in.queues[si]
		q.mu.Lock()
		n := len(q.queue)
		if n == 0 {
			q.mu.Unlock()
			return
		}
		if n > in.cfg.MaxBatch {
			n = in.cfg.MaxBatch
		}
		batch := append([]*intakeEntry(nil), q.queue[:n]...)
		rest := copy(q.queue, q.queue[n:])
		for i := rest; i < len(q.queue); i++ {
			q.queue[i] = nil
		}
		q.queue = q.queue[:rest]
		q.mu.Unlock()

		in.flushes.Inc()
		in.batchSize.Observe(float64(len(batch)))
		in.b.admitBatch(in.b.shards[si], batch)
	}
}

// armTimer arms the idle-flush timer if FlushEvery is configured and no
// timer is already pending.
func (in *intake) armTimer() {
	if in.cfg.FlushEvery <= 0 {
		return
	}
	in.timerMu.Lock()
	if in.timer == nil && !in.b.closed.Load() {
		in.timer = in.b.clock.AfterFunc(in.cfg.FlushEvery, in.onTimer)
	}
	in.timerMu.Unlock()
}

func (in *intake) onTimer() {
	in.timerMu.Lock()
	in.timer = nil
	in.timerMu.Unlock()
	in.b.FlushIntake()
	if in.b.IntakePending() > 0 {
		// Entries raced in behind the flush; cover them too.
		in.armTimer()
	}
}

// close stops the idle timer and fails every queued ticket with err.
// Called from Close and Crash after the closed flag flips; a flush
// already in flight rolls its own batch back against the closed gate.
func (in *intake) close(err error) {
	in.timerMu.Lock()
	if in.timer != nil {
		in.timer.Stop()
		in.timer = nil
	}
	in.timerMu.Unlock()
	in.failQueued(err)
}

// failQueued drains every queue, failing the removed tickets with err.
func (in *intake) failQueued(err error) {
	for _, q := range in.queues {
		q.mu.Lock()
		entries := q.queue
		q.queue = nil
		q.mu.Unlock()
		for _, e := range entries {
			e.ticket.fail(err)
			in.b.met.requestErrors.Inc()
		}
	}
}

// admitBatch is the group commit: one allocator critical section, one
// shard-lock install pass, one activity-log line and one WAL fsync for
// the whole batch; per-member quality/budget/ID/reservation semantics
// identical to requestOnShard.
func (b *Broker) admitBatch(sh *shard, entries []*intakeEntry) {
	defer b.debugCheck("intake-flush")
	started := time.Now()
	if b.closed.Load() {
		for _, e := range entries {
			e.ticket.fail(ErrClosed)
			b.met.requestErrors.Inc()
		}
		return
	}

	// Stage 1 — price and identify. Quality is clamped against the
	// shard's published headroom (the same advisory view the direct
	// path's pre-clamp reads; the allocator re-validates under its
	// lock). Budget refusals are final and never burn an SLA ID, so ID
	// sequences match the direct path exactly.
	type member struct {
		e       *intakeEntry
		id      sla.ID
		quality resource.Capacity
		price   float64
		grant   GrantResult
		handle  gara.Handle
		offer   *Offer
	}
	members := make([]member, 0, len(entries))
	asks := make([]GuaranteedAsk, 0, len(entries))
	for _, e := range entries {
		quality := e.req.Spec.Best()
		if e.req.Class == sla.ClassControlledLoad {
			quality = e.req.Spec.Clamp(quality.Min(sh.alloc.AvailableGuaranteed()))
			quality = quality.Max(e.floor)
		}
		price := b.prices.Cost(e.req.Class, quality)
		if e.req.Budget > 0 && price > e.req.Budget {
			if e.req.Class == sla.ClassGuaranteed {
				e.ticket.fail(fmt.Errorf("%w: price %.2f > budget %.2f", ErrOverBudget, price, e.req.Budget))
				b.met.requestErrors.Inc()
				continue
			}
			quality = e.floor
			price = b.prices.Cost(e.req.Class, quality)
			if price > e.req.Budget {
				e.ticket.fail(fmt.Errorf("%w: floor price %.2f > budget %.2f", ErrOverBudget, price, e.req.Budget))
				b.met.requestErrors.Inc()
				continue
			}
		}
		id := b.newSLAID()
		members = append(members, member{e: e, id: id, quality: quality, price: price})
		asks = append(asks, GuaranteedAsk{User: string(id), Requested: quality, Floor: e.floor})
	}
	if len(members) == 0 {
		return
	}

	// Stage 2 — ONE allocator pass for the whole batch. Refused members
	// fall back to the direct per-request chain below, which retries
	// this shard with scenario-1 compensation and then walks the
	// placement order — intake admission decisions equal direct ones.
	grants, errs, _ := sh.alloc.AllocateGuaranteedBatch(asks)
	installees := members[:0]
	var fallbacks []member
	for i := range members {
		if errs[i] != nil {
			if errors.Is(errs[i], ErrCannotHonor) {
				fallbacks = append(fallbacks, members[i])
			} else {
				members[i].e.ticket.fail(errs[i])
				b.met.requestErrors.Inc()
			}
			continue
		}
		members[i].grant = grants[i]
		installees = append(installees, members[i])
	}

	// Stage 3 — per-member GARA reservation (idempotent create, same
	// rollback as the direct path). A reservation failure is final for
	// that member only; the rest of the batch proceeds.
	kept := installees[:0]
	for i := range installees {
		m := &installees[i]
		allocated := m.grant.Granted
		if !m.grant.Shortfall.IsZero() {
			m.quality = allocated
			m.price = b.prices.Cost(m.e.req.Class, m.quality)
		}
		spec := reservationRSL(m.e.req.Spec, allocated)
		handle, err := b.pol.callCreate("gara.create", string(m.id), func() (gara.Handle, error) {
			return b.cfg.GARA.Create(spec, m.e.req.Start, m.e.req.End, string(m.id))
		})
		if err != nil {
			_ = sh.alloc.ReleaseGuaranteed(string(m.id))
			if h, ok := b.cfg.GARA.FindByTag(string(m.id)); ok {
				b.parkCancel(m.id, h)
			}
			b.journalShardAux("rollback", sh)
			m.e.ticket.fail(fmt.Errorf("core: reservation: %w", err))
			b.met.requestErrors.Inc()
			continue
		}
		m.handle = handle
		kept = append(kept, *m)
	}
	installees = kept

	// Stage 4 — install every surviving member under ONE route-lock and
	// ONE shard-lock acquisition, with per-session confirm timers (so
	// Accept / Close / prune semantics stay identical), the direct path's
	// per-session offer event, and one activity-log line for the batch.
	if len(installees) > 0 {
		ids := make([]sla.ID, 0, len(installees))
		b.routeMu.Lock()
		for i := range installees {
			b.route[installees[i].id] = sh
			ids = append(ids, installees[i].id)
		}
		b.routeMu.Unlock()

		now := b.clock.Now()
		expires := now.Add(b.cfg.ConfirmWindow)
		sh.mu.Lock()
		if b.closed.Load() {
			sh.mu.Unlock()
			b.routeMu.Lock()
			for _, id := range ids {
				delete(b.route, id)
			}
			b.routeMu.Unlock()
			for i := range installees {
				m := &installees[i]
				_ = sh.alloc.ReleaseGuaranteed(string(m.id))
				_ = b.cfg.GARA.Cancel(m.handle)
				m.e.ticket.fail(ErrClosed)
				b.met.requestErrors.Inc()
			}
			b.journalShardAux("rollback", sh)
			return
		}
		for i := range installees {
			m := &installees[i]
			id := m.id
			allocated := m.grant.Granted
			doc := &sla.Document{
				ID:       id,
				Service:  m.e.req.Service,
				Client:   m.e.req.Client,
				Provider: b.cfg.Domain,
				Class:    m.e.req.Class,
				Spec:     m.e.req.Spec.Clone(),
				Adapt: sla.AdaptationOptions{
					AcceptDegradation: m.e.req.AcceptDegradation,
					AcceptTermination: m.e.req.AcceptTermination,
					PromotionOffers:   m.e.req.PromotionOptIn,
					AlternativeQoS:    m.e.floor,
					HasAlternative:    m.e.req.AcceptDegradation || m.e.req.Class == sla.ClassControlledLoad,
				},
				Penalty:   m.e.req.Penalty,
				Start:     m.e.req.Start,
				End:       m.e.req.End,
				Price:     m.price,
				Allocated: allocated,
				State:     sla.StateProposed,
			}
			sess := &session{doc: doc, handle: m.handle, original: allocated, proposedAt: now}
			sh.sessions[id] = sess
			sess.confirm = b.clock.AfterFunc(b.cfg.ConfirmWindow, func() {
				b.expireOffer(id)
			})
			m.offer = &Offer{
				SLA:        doc.Clone(),
				Price:      m.price,
				Expires:    expires,
				ServiceKey: m.e.key,
			}
			b.logOffer(id, allocated, m.price, expires)
		}
		b.logf("offer", "", "group-commit: %d offer(s) proposed in one batch (shard %d)",
			len(installees), sh.index)
		sh.mu.Unlock()

		// Stage 5 — one WAL append (one fsync) carrying a per-session
		// record for every member, so replay is unchanged.
		b.journalBatch("propose", sh, ids)

		// Stage 6 — resolve tickets and record per-admission telemetry.
		for i := range installees {
			m := &installees[i]
			b.met.requests.Inc()
			m.e.ticket.fulfill(m.offer)
		}
	}

	// Fallback chain for members the batch pass could not honor: the
	// full direct placement loop with the already-issued ID, including
	// scenario-1 compensation on this shard.
	for i := range fallbacks {
		m := &fallbacks[i]
		id := m.id
		ensure := func() sla.ID { return id }
		order := b.placementOrder(m.e.req.ShardHint, m.e.floor)
		var offer *Offer
		var lastErr error
		for _, sh2 := range order {
			o, err := b.requestOnShard(sh2, m.e.req, m.e.key, m.e.floor, ensure)
			if err == nil {
				offer = o
				break
			}
			lastErr = err
			if !errors.Is(err, ErrCannotHonor) {
				break
			}
		}
		switch {
		case offer != nil:
			b.met.requests.Inc()
			m.e.ticket.fulfill(offer)
		case len(b.shards) > 1 && errors.Is(lastErr, ErrCannotHonor):
			m.e.ticket.fail(fmt.Errorf("core: %d shard(s) tried, none can honor: %w", len(order), lastErr))
			b.met.requestErrors.Inc()
		default:
			m.e.ticket.fail(lastErr)
			b.met.requestErrors.Inc()
		}
	}

	// Admission latency parity: the direct path observes one wall-clock
	// sample per request; the batch observes the amortized per-member
	// share, so histogram quantiles report what each admission cost.
	per := time.Since(started) / time.Duration(len(entries))
	for range entries {
		b.met.admitSeconds.Observe(per.Seconds())
	}
}
