package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"gqosm/internal/gara"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// Request is a client's service request with QoS requirements (the
// service_request of Fig. 7): "a client contacts the AQoS broker with its
// service information and QoS requirements, such as reservation time and
// budget constraints" (§2.1).
type Request struct {
	Service string
	Client  string
	Class   sla.Class
	Spec    sla.Spec
	// Start and End bound the reservation.
	Start, End time.Time
	// Budget caps the session price; 0 means unconstrained.
	Budget float64
	// AcceptDegradation / AcceptTermination / PromotionOptIn are the
	// adaptation options the client is willing to record in the SLA
	// (§5.2).
	AcceptDegradation bool
	AcceptTermination bool
	PromotionOptIn    bool
	// Penalty records the SLA-violation penalty terms (§5.2 lists "SLA
	// violation penalties" among the agreed terms); zero means no
	// penalty clause.
	Penalty sla.Penalty
	// ShardHint pins placement to a shard (1-based index; 0 lets the
	// placement layer pick the least-loaded shard). The fallback chain
	// across the remaining shards still applies on capacity errors.
	// Ignored by single-shard brokers.
	ShardHint int
}

// Validate checks the request.
func (r Request) Validate() error {
	if r.Service == "" {
		return fmt.Errorf("core: request needs a service name")
	}
	if r.Class != sla.ClassGuaranteed && r.Class != sla.ClassControlledLoad {
		return fmt.Errorf("core: negotiated requests must be guaranteed or controlled-load, got %v", r.Class)
	}
	if len(r.Spec.Params) == 0 {
		return fmt.Errorf("core: request needs QoS parameters")
	}
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	if !r.End.After(r.Start) {
		return fmt.Errorf("core: end %v not after start %v", r.End, r.Start)
	}
	if r.PromotionOptIn && r.Class != sla.ClassControlledLoad {
		return fmt.Errorf("core: promotion offers require the controlled-load class")
	}
	return nil
}

// Offer is the broker's response to a request: a proposed SLA with
// temporarily reserved resources, valid until Expires (§3.1: "resources
// are temporarily reserved during the discovery phase until the client and
// the AQoS conclude a SLA").
type Offer struct {
	SLA     *sla.Document
	Price   float64
	Expires time.Time
	// ServiceKey is the discovered registry entry backing the offer.
	ServiceKey registry.Key
	// Compensated reports that scenario-1 adaptation (degrading willing
	// SLAs) was needed to make room.
	Compensated bool
}

// RequestService runs the discovery and negotiation phases: find matching
// services, verify resource availability (adapting active sessions if
// necessary — scenario 1), temporarily reserve, and return a priced offer.
func (b *Broker) RequestService(req Request) (*Offer, error) {
	// Admission latency is wall-clock (time.Now, not b.clock): the
	// injected clock measures simulated time, while the histogram
	// measures how long the broker actually works.
	started := time.Now()
	offer, err := b.requestService(req)
	b.met.admitSeconds.Observe(time.Since(started).Seconds())
	if err != nil {
		b.met.requestErrors.Inc()
		return nil, err
	}
	b.met.requests.Inc()
	return offer, nil
}

func (b *Broker) requestService(req Request) (*Offer, error) {
	defer b.debugCheck("request")
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if b.closed.Load() {
		return nil, ErrClosed
	}
	if b.recovering.Load() {
		// Mid-Recover the session table and allocators are still being
		// installed; refuse with the transient gate so federated callers
		// retry or re-route instead of treating this broker as dead.
		return nil, ErrPeerUnavailable
	}
	// The floor is read by discovery, placement and admission; compute it
	// once here instead of re-deriving it from the spec at every layer.
	floor := req.Spec.Floor()
	b.logf("discovery", "", "client %q requests %q class=%s spec floor %v",
		req.Client, req.Service, req.Class, floor)

	key, err := b.discover(req, floor)
	if err != nil {
		return nil, err
	}

	// Placement: try shards least-loaded first (honoring any hint) and
	// fall back across them on capacity refusals — the intra-domain
	// mirror of the federation's capacity-error forwarding. The SLA ID is
	// issued lazily by the first attempt that needs one, so ID sequences
	// match the single-shard broker exactly (budget refusals never burn
	// an ID).
	var id sla.ID
	ensureID := func() sla.ID {
		if id == "" {
			id = b.newSLAID()
		}
		return id
	}
	order := b.placementOrder(req.ShardHint, floor)
	var lastErr error
	for _, sh := range order {
		offer, err := b.requestOnShard(sh, req, key, floor, ensureID)
		if err == nil {
			return offer, nil
		}
		lastErr = err
		if !errors.Is(err, ErrCannotHonor) {
			// Non-capacity refusals (budget, reservation, shutdown) are
			// final: no other shard would decide differently.
			return nil, err
		}
	}
	if len(b.shards) == 1 {
		return nil, lastErr
	}
	return nil, fmt.Errorf("core: %d shard(s) tried, none can honor: %w", len(order), lastErr)
}

// logOffer records the creation of session id as a proposed offer.
func (b *Broker) logOffer(id sla.ID, allocated resource.Capacity, price float64, expires time.Time) {
	b.logTransition("offer", id, 0, sla.StateProposed, allocated,
		"proposed %v at price %.2f (expires %s)", allocated, price, clockOfDay(expires))
}

// requestOnShard runs the negotiation phase against one shard: quality
// clamp against the shard's headroom, budget check, Algorithm-1 admission
// with scenario-1 compensation on the shard's own sessions, GARA
// reservation, and session registration under the shard lock. ensureID
// issues the global SLA ID on first use.
func (b *Broker) requestOnShard(sh *shard, req Request, key registry.Key, floor resource.Capacity, ensureID func() sla.ID) (*Offer, error) {
	// Choose the proposed quality: guaranteed gets the exact request;
	// controlled-load gets the best level currently free, never below
	// the floor.
	quality := req.Spec.Best()
	if req.Class == sla.ClassControlledLoad {
		// Offer the best level the shard's headroom carries; Clamp
		// raises below-floor dimensions back to the floor, in which case
		// admission relies on scenario-1 compensation below.
		quality = req.Spec.Clamp(quality.Min(sh.alloc.AvailableGuaranteed()))
		quality = quality.Max(floor)
	}

	// Budget: degrade controlled-load quality toward the floor until the
	// price fits.
	price := b.prices.Cost(req.Class, quality)
	if req.Budget > 0 && price > req.Budget {
		if req.Class == sla.ClassGuaranteed {
			return nil, fmt.Errorf("%w: price %.2f > budget %.2f", ErrOverBudget, price, req.Budget)
		}
		quality = floor
		price = b.prices.Cost(req.Class, quality)
		if price > req.Budget {
			return nil, fmt.Errorf("%w: floor price %.2f > budget %.2f", ErrOverBudget, price, req.Budget)
		}
	}

	id := ensureID()

	// Capacity admission via Algorithm 1, with scenario-1 compensation
	// on failure.
	compensated := false
	grant, err := sh.alloc.AllocateGuaranteed(string(id), quality, floor)
	if err != nil {
		freed, cerr := b.compensate(sh, floor)
		if cerr != nil {
			return nil, fmt.Errorf("request %s: %w (compensation: %v)", id, err, cerr)
		}
		compensated = freed
		grant, err = sh.alloc.AllocateGuaranteed(string(id), quality, floor)
		if err != nil {
			return nil, fmt.Errorf("request %s after compensation: %w", id, err)
		}
	}
	allocated := grant.Granted
	if !grant.Shortfall.IsZero() {
		// Only the floor was granted; reprice at what is delivered.
		quality = allocated
		price = b.prices.Cost(req.Class, quality)
	}

	// Mechanism: temporary GARA reservation, created idempotently: a
	// retry after a lost reply adopts the reservation already committed
	// under this SLA's tag instead of double-committing it.
	spec := reservationRSL(req.Spec, allocated)
	handle, err := b.pol.callCreate("gara.create", string(id), func() (gara.Handle, error) {
		return b.cfg.GARA.Create(spec, req.Start, req.End, string(id))
	})
	if err != nil {
		_ = sh.alloc.ReleaseGuaranteed(string(id))
		// A timed-out or partially-failed attempt may still have
		// committed the reservation; park it so the reconciliation
		// sweep cancels it rather than leaking it.
		if h, ok := b.cfg.GARA.FindByTag(string(id)); ok {
			b.parkCancel(id, h)
		}
		// The failed admission may have preempted best-effort grants;
		// journal the shard's post-rollback aux or replay resurrects them.
		b.journalShardAux("rollback", sh)
		return nil, fmt.Errorf("core: reservation: %w", err)
	}

	doc := &sla.Document{
		ID:       id,
		Service:  req.Service,
		Client:   req.Client,
		Provider: b.cfg.Domain,
		Class:    req.Class,
		Spec:     req.Spec.Clone(),
		Adapt: sla.AdaptationOptions{
			AcceptDegradation: req.AcceptDegradation,
			AcceptTermination: req.AcceptTermination,
			PromotionOffers:   req.PromotionOptIn,
			AlternativeQoS:    floor,
			HasAlternative:    req.AcceptDegradation || req.Class == sla.ClassControlledLoad,
		},
		Penalty:   req.Penalty,
		Start:     req.Start,
		End:       req.End,
		Price:     price,
		Allocated: allocated,
		State:     sla.StateProposed,
	}
	expires := b.clock.Now().Add(b.cfg.ConfirmWindow)
	sess := &session{doc: doc, handle: handle, original: allocated, proposedAt: b.clock.Now()}

	// Install the route before the session: the confirm timer's expiry
	// callback resolves the shard through it.
	b.routeMu.Lock()
	b.route[id] = sh
	b.routeMu.Unlock()

	sh.mu.Lock()
	if b.closed.Load() {
		// The broker shut down while this request was negotiating; undo
		// the reservation rather than leak it into a closed broker.
		sh.mu.Unlock()
		b.routeMu.Lock()
		delete(b.route, id)
		b.routeMu.Unlock()
		_ = sh.alloc.ReleaseGuaranteed(string(id))
		_ = b.cfg.GARA.Cancel(handle)
		b.journalShardAux("rollback", sh)
		return nil, ErrClosed
	}
	sh.sessions[id] = sess
	// Schedule the auto-cancel only after the session is registered: the
	// clock may fire the callback the instant it is armed (a concurrent
	// Advance past the window), and an expiry that finds no session would
	// silently leave the offer un-expirable. Timer scheduling never fires
	// callbacks synchronously under the clock's lock, so arming it under
	// sh.mu cannot deadlock.
	sess.confirm = b.clock.AfterFunc(b.cfg.ConfirmWindow, func() {
		b.expireOffer(id)
	})
	b.logOffer(id, allocated, price, expires)
	// Snapshot the offer document before releasing the lock: once the
	// confirm timer is armed, a concurrent clock advance can expire the
	// offer and mutate doc at any moment.
	offered := doc.Clone()
	sh.mu.Unlock()

	// Proposal is the one lifecycle step that never reaches persist —
	// journal it explicitly: the proposed session holds an allocator
	// grant and a GARA reservation that recovery must account for.
	b.journal("propose", id)

	return &Offer{
		SLA:         offered,
		Price:       price,
		Expires:     expires,
		ServiceKey:  key,
		Compensated: compensated,
	}, nil
}

// discover queries the registry for services matching the request's name
// and QoS floor (the UDDIe property search of §2.1). With no registry
// configured the request is accepted as-is. When the discovery cache is
// live a repeated (service, floor) query is answered from it — skipping
// the registry Find and the per-request Query rebuild (including the
// trimFloat rendering of every filter value) entirely; errors and empty
// result sets always fall through, so they behave identically on the
// cached and uncached paths.
func (b *Broker) discover(req Request, floor resource.Capacity) (registry.Key, error) {
	if b.cfg.Registry == nil {
		return "", nil
	}
	dk := discoveryKeyFor(req.Service, floor)
	var (
		q          registry.Query
		epoch, gen uint64
	)
	if b.dcache != nil {
		if key, ok := b.dcache.lookup(dk, b.clock.Now()); ok {
			return key, nil
		}
		// Miss: reuse the prebuilt query of any stale entry, and read the
		// epoch+generation stamp before the Find (see discoveryCache.stamp).
		q = b.dcache.queryFor(dk)
		epoch, gen = b.dcache.stamp()
	} else {
		q = buildDiscoveryQuery(dk)
	}
	matches, err := b.cfg.Registry.Find(q)
	if err != nil {
		return "", fmt.Errorf("core: discovery: %w", err)
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("%w: %q with %v", ErrNoService, req.Service, floor)
	}
	if b.dcache != nil {
		b.dcache.store(dk, &discoveryEntry{
			query:      q,
			key:        matches[0].Key,
			name:       matches[0].Name,
			leaseUntil: matches[0].LeaseUntil,
			gen:        gen,
			epoch:      epoch,
		})
	}
	b.logf("discovery", "", "registry returned %d matching service(s); selected %q",
		len(matches), matches[0].Name)
	return matches[0].Key, nil
}

// compensate implements scenario 1: "adaptation can be used to free
// resources to accommodate the new request by adjusting resource
// allocations of active services while still satisfying their SLAs. …
// The list is filtered to include only those services whose SLAs indicate
// willingness to accept a degraded QoS and/or termination of service."
// It degrades willing active sessions to their floors, then (if still
// needed) terminates willing-to-terminate sessions, cheapest first. It
// reports whether anything was freed. Compensation is shard-local: only
// sessions admitted on sh can return capacity to sh's partition.
func (b *Broker) compensate(sh *shard, needed resource.Capacity) (bool, error) {
	sh.mu.Lock()
	// Snapshot everything the ladder ordering reads while sh.mu is held:
	// the documents stay owned by the shard and may be mutated (price,
	// state) by concurrent lifecycle calls once the lock is released.
	var degradable, terminable []LadderTarget
	for id, s := range sh.sessions {
		if s.doc.State != sla.StateActive && s.doc.State != sla.StateEstablished {
			continue
		}
		floor := s.doc.Spec.Floor()
		if s.doc.Adapt.AcceptDegradation && !s.doc.Allocated.Sub(floor).ClampMin(resource.Capacity{}).IsZero() {
			degradable = append(degradable, LadderTarget{ID: id, Price: s.doc.Price, Recovered: s.doc.Allocated.Sub(floor)})
		}
		if s.doc.Adapt.AcceptTermination {
			terminable = append(terminable, LadderTarget{ID: id, Price: s.doc.Price, Recovered: s.doc.Allocated})
		}
	}
	sh.mu.Unlock()

	if len(degradable) == 0 && len(terminable) == 0 {
		return false, fmt.Errorf("core: no active SLA accepts degradation or termination")
	}

	// The policy decides the victim order (the paper's: cheapest first by
	// (price, id), minimizing provider impact). The shadow candidate sorts
	// its own copy of the pre-sort ladder so the comparison is
	// order-independent and side-effect-free.
	sortTargets := func(ts []LadderTarget) {
		if b.shadowPol != nil && len(ts) > 1 {
			cand := append([]LadderTarget(nil), ts...)
			b.shadowPol.CompensationOrder(cand)
			b.policy.CompensationOrder(ts)
			b.recordShadow("ladder", !sameLadderOrder(ts, cand))
			return
		}
		b.policy.CompensationOrder(ts)
	}
	sortTargets(degradable)
	sortTargets(terminable)

	freed := false
	for _, t := range degradable {
		if needed.FitsIn(sh.alloc.AvailableGuaranteed()) {
			break
		}
		if err := b.degradeToFloor(t.ID); err == nil {
			freed = true
		}
	}
	for _, t := range terminable {
		if needed.FitsIn(sh.alloc.AvailableGuaranteed()) {
			break
		}
		// Tear down without the scenario-2 hook: running it here would
		// restore the volunteers degraded above and hand the freed
		// capacity straight back.
		if err := b.terminateForCompensation(t.ID); err == nil {
			freed = true
		}
	}
	if freed {
		b.met.compensations.Inc()
	}
	if !needed.FitsIn(sh.alloc.AvailableGuaranteed()) {
		return freed, fmt.Errorf("core: compensation freed insufficient capacity for %v", needed)
	}
	return freed, nil
}

// degradeToFloor shrinks an active session to its SLA floor (still
// satisfying the SLA) and records it as degraded.
func (b *Broker) degradeToFloor(id sla.ID) error {
	sh := b.shardFor(id)
	if sh == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	doc := s.doc
	floor := doc.Spec.Floor()
	if doc.Allocated.Equal(floor) {
		sh.mu.Unlock()
		return nil
	}
	prevAlloc := doc.Allocated
	prevState := doc.State
	handle := s.handle
	spec := doc.Spec.Clone()
	sh.mu.Unlock()

	if _, err := b.allocateLive(id, floor, floor); err != nil {
		return err
	}
	if err := b.applyAllocation(id, handle, spec, floor, true); err != nil {
		return fmt.Errorf("core: degrade %s: %w", id, err)
	}

	sh.mu.Lock()
	s.degraded = true
	if s.doc.State == sla.StateActive {
		_ = s.doc.Transition(sla.StateDegraded)
	}
	newState := s.doc.State
	b.logTransition("adapt", id, prevState, newState, floor.Sub(prevAlloc),
		"degraded to floor %v (scenario 1 compensation)", floor)
	sh.mu.Unlock()
	b.met.degraded.Inc()
	b.persist(id)
	return nil
}

// Accept confirms a proposed offer: the SLA is established, the temporary
// reservation committed, and the client charged.
func (b *Broker) Accept(id sla.ID) error {
	defer b.debugCheck("accept")
	sh := b.shardFor(id)
	if sh == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	if s.doc.State != sla.StateProposed {
		state := s.doc.State
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrBadState, id, state)
	}
	if s.confirm != nil {
		s.confirm.Stop()
		s.confirm = nil
	}
	if err := s.doc.Transition(sla.StateEstablished); err != nil {
		sh.mu.Unlock()
		return err
	}
	price := s.doc.Price
	b.logTransition("sla", id, sla.StateProposed, sla.StateEstablished, resource.Capacity{},
		"established; resources committed; charged %.2f", price)
	sh.mu.Unlock()

	b.met.accepted.Inc()
	b.ledger.Charge(id, price, b.clock.Now(), "session charge")
	b.persist(id)
	return nil
}

// Reject declines a proposed offer, releasing the temporary reservation.
// The proposed-state check is evaluated atomically with the teardown so a
// concurrent Accept cannot establish the session in between and have it
// torn down anyway.
func (b *Broker) Reject(id sla.ID) error {
	defer b.debugCheck("reject")
	err := b.teardownIf(id, sla.StateTerminated, "offer rejected by client",
		func(s *session) bool { return s.doc.State == sla.StateProposed })
	if err == nil {
		b.met.rejected.Inc()
	}
	return err
}

// expireOffer is the §3.1 auto-cancel: "if the RS does not receive such
// confirmation within the pre-defined period of time, it instructs GARA to
// cancel the reservation." Gated on the proposed state atomically with the
// teardown: an Accept racing the confirmation deadline either establishes
// the session (and the expiry is a no-op) or loses cleanly.
func (b *Broker) expireOffer(id sla.ID) {
	err := b.teardownIf(id, sla.StateTerminated,
		"confirmation window elapsed; reservation canceled",
		func(s *session) bool { return s.doc.State == sla.StateProposed })
	if err == nil {
		b.met.expired.Inc()
	}
}

// BestEffortRequest asks for best-effort capacity — no SLA, no
// negotiation: "any suitable resources found are returned to the user"
// (§5.1). The grant is immediate or refused. A client's best-effort
// allocations are pinned to the shard of its first grant so repeated
// grants and the final release balance on one partition; the first grant
// picks a shard in placement order, falling back on ErrBestEffortFull.
func (b *Broker) BestEffortRequest(client string, amount resource.Capacity) error {
	defer b.debugCheck("best-effort")
	if b.closed.Load() {
		return ErrClosed
	}
	b.beMu.Lock()
	if sh, pinned := b.beRoute[client]; pinned {
		if err := sh.alloc.AllocateBestEffort(client, amount); err != nil {
			b.beMu.Unlock()
			b.logf("best-effort", "", "denied %v to %q: %v", amount, client, err)
			return err
		}
		b.journalBELocked("be-grant", sh)
		b.beMu.Unlock()
		b.maybeSnapshot()
		b.logf("best-effort", "", "granted %v to %q", amount, client)
		return nil
	}
	var lastErr error
	for _, sh := range b.placementOrder(0, resource.Capacity{}) {
		err := sh.alloc.AllocateBestEffort(client, amount)
		if err == nil {
			b.beRoute[client] = sh
			b.journalBELocked("be-grant", sh)
			b.beMu.Unlock()
			b.maybeSnapshot()
			b.logf("best-effort", "", "granted %v to %q", amount, client)
			return nil
		}
		lastErr = err
		if !errors.Is(err, ErrBestEffortFull) {
			break
		}
	}
	b.beMu.Unlock()
	b.logf("best-effort", "", "denied %v to %q: %v", amount, client, lastErr)
	return lastErr
}

// BestEffortRelease returns a best-effort client's capacity.
func (b *Broker) BestEffortRelease(client string) error {
	defer b.debugCheck("best-effort-release")
	b.beMu.Lock()
	sh, pinned := b.beRoute[client]
	if !pinned {
		sh = b.shards[0]
	}
	err := sh.alloc.ReleaseBestEffort(client)
	if err == nil || errors.Is(err, ErrUnknownUser) {
		// An evicted borrower's pin is stale; drop it either way.
		delete(b.beRoute, client)
		b.journalBELocked("be-release", sh)
	}
	b.beMu.Unlock()
	b.maybeSnapshot()
	if err != nil {
		return err
	}
	b.logf("best-effort", "", "released all capacity of %q", client)
	b.afterRelease()
	return nil
}

func (b *Broker) newSLAID() sla.ID {
	return sla.ID(fmt.Sprintf("%s-sla-%04d",
		strings.ToLower(nonEmpty(b.cfg.Domain, "aqos")), b.nextID.Add(1)))
}

// reservationRSL renders the GARA request for a spec at the allocated
// capacity: a compute part for CPU/memory/disk and a network part for
// bandwidth, combined into a multirequest when both are present.
//
// The string is a pure function of (spec shape, allocation) — the
// session's idempotency tag travels as Create's explicit tag argument,
// never inside the RSL. That keeps identical asks rendering identical
// strings, so rsl.ParseCached hits on every repeat admission instead of
// parsing a unique string per session.
func reservationRSL(spec sla.Spec, alloc resource.Capacity) string {
	_, hasCPU := spec.Params[resource.CPU]
	_, hasMem := spec.Params[resource.MemoryMB]
	_, hasDisk := spec.Params[resource.DiskGB]
	compute := hasCPU || hasMem || hasDisk
	_, network := spec.Params[resource.BandwidthMbps]
	if !compute && !network {
		return "+" // empty multirequest; specs are validated before this
	}
	multi := compute && network

	// One preallocated buffer, appended in place: this renders on every
	// admission, renegotiation, and compensation, so it must not pay for
	// fmt's reflection or intermediate part strings.
	buf := make([]byte, 0, 160)
	if multi {
		buf = append(buf, '+', '(')
	}
	if compute {
		buf = append(buf, `&(reservation-type="compute")`...)
		if hasCPU {
			buf = append(buf, "(count="...)
			buf = strconv.AppendFloat(buf, alloc.CPU, 'f', -1, 64)
			buf = append(buf, ')')
		}
		if hasMem {
			buf = append(buf, "(memory="...)
			buf = strconv.AppendFloat(buf, alloc.MemoryMB, 'f', -1, 64)
			buf = append(buf, ')')
		}
		if hasDisk {
			buf = append(buf, "(disk="...)
			buf = strconv.AppendFloat(buf, alloc.DiskGB, 'f', -1, 64)
			buf = append(buf, ')')
		}
		if multi {
			buf = append(buf, ')', '(')
		}
	}
	if network {
		buf = append(buf, `&(reservation-type="network")(source-ip=`...)
		buf = strconv.AppendQuote(buf, spec.SourceIP)
		buf = append(buf, ")(dest-ip="...)
		buf = strconv.AppendQuote(buf, spec.DestIP)
		buf = append(buf, ")(bandwidth="...)
		buf = strconv.AppendFloat(buf, alloc.BandwidthMbps, 'f', -1, 64)
		buf = append(buf, ')')
	}
	if multi {
		buf = append(buf, ')')
	}
	return string(buf)
}

func nonEmpty(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// trimFloat formats a float without trailing zeros for RSL and registry
// filter values.
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}
