package main

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// inproc-lifecycle: a closed loop of two clients calling core.Broker
// directly on a two-shard broker with no WAL, no intake and no
// transport. Each client steps through a seeded mix of the whole
// lifecycle; capacity is tight enough that a steady share of admissions
// takes Algorithm 1's floor grant or scenario-1 compensation. Failures
// stay within the adaptive reserve, so no live session degrades.

var inprocPlan = core.CapacityPlan{
	Guaranteed: resource.Capacity{CPU: 48, MemoryMB: 49152, DiskGB: 480},
	Adaptive:   resource.Capacity{CPU: 12, MemoryMB: 12288, DiskGB: 120},
	BestEffort: resource.Capacity{CPU: 12, MemoryMB: 12288, DiskGB: 120},
}

const (
	inprocClients = 2
	inprocPhase   = 250 * time.Millisecond
	inprocWarmup  = time.Second
	inprocLimit   = 500 * time.Microsecond
	inprocMaxCPU  = 6
)

type lifeSession struct {
	id      sla.ID
	class   sla.Class
	invoked bool
	us      float64 // the session's own call time so far
}

type lifeClient struct {
	name   string
	gen    *opGen
	st     *stack
	w      *window
	calls  *callStats
	live   []*lifeSession
	beHeld bool
	failed bool
	// measuring is false during warm-up: calls run but are not recorded.
	measuring bool
	n         int
}

func runInproc(rc runCtx) (*result, error) {
	w := newWindow(inprocLimit)
	w.tr = rc.tr
	st, err := buildStacks(w, func() (*stack, error) {
		return newStack(stackConfig{Plan: inprocPlan, Shards: 2, Tracer: rc.tr})
	})
	if err != nil {
		return nil, err
	}
	defer func() { st.close() }()

	calls := newCallStats()
	clients := make([]*lifeClient, inprocClients)
	for i := range clients {
		clients[i] = &lifeClient{name: "c" + strconv.Itoa(i), gen: newOpGen(rc.seed, i),
			st: st, w: w, calls: calls}
	}
	warm := inprocWarmup
	if rc.tiny {
		warm = inprocPhase
	}
	runPhases(st, clients, warm)
	for _, c := range clients {
		c.measuring = true
	}
	before := takeSnap(st.obs, st.broker)
	heap := startHeapSampler()
	rc.tr.record(true)
	w.seconds = runPhases(st, clients, rc.dur)
	rc.tr.record(false)
	w.heapPeakMB = heap.finish()
	w.delta = before.to(takeSnap(st.obs, st.broker))

	// Drain: recover the failed capacity, end every session and grant.
	st.broker.NotifyFailure(resource.Capacity{})
	for _, c := range clients {
		c.drain()
	}
	if err := checkCalls(calls); err != nil {
		return nil, err
	}
	if err := checkDrained(st); err != nil {
		return nil, err
	}
	if err := coldRestarts(w, st); err != nil {
		return nil, err
	}
	e := w.e2e()
	return &result{
		e2e: e, layers: w.layers(),
		attempted: calls.attempted.Load(), failed: calls.failed.Load(),
		cacheHits: w.delta.cacheHits, cacheMisses: w.delta.cacheMisses, unitCost: per(1, e["sessions_per_s"]),
		notes: map[string]any{"requests": w.requests.Load(), "admitted": w.admitted.Load(),
			"sessions": w.sessionsDone.Load(), "failure_events": w.events.Load(),
			"compensations": w.delta.lifecycle["compensate"]},
	}, nil
}

// runPhases runs the clients in phases of inprocPhase until d of
// stepping has elapsed, quiescing between phases, and returns the
// stepping time.
func runPhases(st *stack, clients []*lifeClient, d time.Duration) float64 {
	var stepped time.Duration
	for stepped < d {
		phase := inprocPhase
		if rest := d - stepped; rest < phase {
			phase = rest
		}
		start := time.Now()
		end := start.Add(phase)
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *lifeClient) {
				defer wg.Done()
				for time.Now().Before(end) {
					c.step()
				}
			}(c)
		}
		wg.Wait()
		stepped += time.Since(start)
		quiesce(st, clients)
	}
	return stepped.Seconds()
}

// quiesce forgets sessions the clock expired and prunes terminal state,
// keeping the working set flat over a long run.
func quiesce(st *stack, clients []*lifeClient) {
	for _, c := range clients {
		kept := c.live[:0]
		for _, s := range c.live {
			if doc, err := st.broker.Session(s.id); err == nil && !doc.State.Terminal() {
				kept = append(kept, s)
			}
		}
		c.live = kept
	}
	st.broker.PruneTerminal()
	st.gram.PruneTerminal()
	st.gara.PruneCanceled()
}

func (c *lifeClient) pick(r int) (int, *lifeSession) {
	if len(c.live) == 0 {
		return -1, nil
	}
	i := r % len(c.live)
	return i, c.live[i]
}

func (c *lifeClient) drop(i int) {
	c.live[i] = c.live[len(c.live)-1]
	c.live = c.live[:len(c.live)-1]
}

// finishSession records a session that ended by its own call.
func (c *lifeClient) finishSession(s *lifeSession) {
	if c.measuring {
		c.w.session.addUS(s.us)
		c.w.sessionsDone.Add(1)
	}
}

func (c *lifeClient) step() {
	b := c.st.broker
	tr := c.st.tr
	d := c.gen.next()
	c.n++
	switch {
	case d.op < 30: // request, then accept or reject the offer
		req := computeRequest(d, c.st.clock.Now(), c.name+"-"+strconv.Itoa(c.n), inprocMaxCPU)
		tk := tr.begin("core.request")
		start := time.Now()
		offer, err := b.RequestService(req)
		dur := time.Since(start)
		var id sla.ID
		if err == nil {
			id = offer.SLA.ID
		}
		tr.finish(tk, string(id))
		c.calls.note("request", err, isRefusal(err))
		if c.measuring {
			c.w.admission(dur, err == nil)
		}
		if err != nil {
			return
		}
		s := &lifeSession{id: id, class: req.Class, us: float64(dur.Nanoseconds()) / 1e3}
		if d.r3%100 < 85 {
			tk = tr.begin("core.accept")
			start = time.Now()
			err = b.Accept(id)
			s.us += float64(time.Since(start).Nanoseconds()) / 1e3
			tr.finish(tk, string(id))
			c.calls.note("accept", err, lapsed(b, id, err))
			if err == nil {
				c.live = append(c.live, s)
			}
			return
		}
		tk = tr.begin("core.reject")
		start = time.Now()
		err = b.Reject(id)
		s.us += float64(time.Since(start).Nanoseconds()) / 1e3
		tr.finish(tk, string(id))
		c.calls.note("reject", err, lapsed(b, id, err))
		if err == nil {
			c.finishSession(s)
		}
	case d.op < 40: // invoke
		i, s := c.pick(d.r1)
		if s == nil || s.invoked {
			return
		}
		tk := tr.begin("core.invoke")
		start := time.Now()
		_, err := b.Invoke(s.id)
		s.us += float64(time.Since(start).Nanoseconds()) / 1e3
		tr.finish(tk, string(s.id))
		c.calls.note("invoke", err, lapsed(b, s.id, err))
		if err == nil {
			s.invoked = true
		} else {
			c.drop(i)
		}
	case d.op < 50: // conformance test
		i, s := c.pick(d.r1)
		if s == nil {
			return
		}
		tk := tr.begin("core.verify")
		start := time.Now()
		_, err := b.Verify(s.id)
		s.us += float64(time.Since(start).Nanoseconds()) / 1e3
		tr.finish(tk, string(s.id))
		c.calls.note("verify", err, lapsed(b, s.id, err))
		if err != nil {
			c.drop(i)
		}
	case d.op < 58: // renegotiate
		i, s := c.pick(d.r1)
		if s == nil {
			return
		}
		tk := tr.begin("core.renegotiate")
		start := time.Now()
		_, err := b.Renegotiate(s.id, renegotiatedSpec(d, s.class, inprocMaxCPU))
		s.us += float64(time.Since(start).Nanoseconds()) / 1e3
		tr.finish(tk, string(s.id))
		gone := lapsed(b, s.id, err)
		c.calls.note("renegotiate", err, isRefusal(err) || gone)
		if gone {
			c.drop(i)
		}
	case d.op < 78: // terminate
		i, s := c.pick(d.r1)
		if s == nil {
			return
		}
		tk := tr.begin("core.terminate")
		start := time.Now()
		err := b.Terminate(s.id, "client done")
		s.us += float64(time.Since(start).Nanoseconds()) / 1e3
		tr.finish(tk, string(s.id))
		c.calls.note("terminate", err, lapsed(b, s.id, err))
		c.drop(i)
		if err == nil {
			c.finishSession(s)
		}
	case d.op < 86: // best-effort churn
		if c.beHeld {
			err := b.BestEffortRelease(c.name + "-be")
			c.calls.note("be-release", err, errors.Is(err, core.ErrUnknownUser))
			c.beHeld = false
			return
		}
		err := b.BestEffortRequest(c.name+"-be", resource.Nodes(float64(1+d.r2%4)))
		c.calls.note("be-request", err, isRefusal(err))
		c.beHeld = err == nil
	case d.op < 96: // time passes; sessions lapse
		c.st.clock.Advance(time.Duration(1+d.r1%10) * time.Minute)
		b.ExpireDue()
		c.calls.note("expire", nil, false)
	default: // a failure within the adaptive reserve, or its recovery
		if !c.failed {
			off := resource.Nodes(float64(2 + d.r2%int(inprocPlan.Adaptive.CPU-1)))
			tk := tr.begin("core.notify_failure")
			start := time.Now()
			pre := b.NotifyFailure(off)
			dur := time.Since(start)
			tr.finish(tk, "")
			c.calls.note("failure", nil, false)
			if c.measuring {
				c.w.adapt.add(dur)
				c.w.events.Add(1)
				c.w.preempted.Add(int64(len(pre)))
			}
			c.failed = true
			return
		}
		start := time.Now()
		tk := tr.begin("core.notify_failure")
		b.NotifyFailure(resource.Capacity{})
		tr.finish(tk, "")
		tk = tr.begin("core.optimizer")
		_, err := b.RunOptimizer()
		tr.finish(tk, "")
		dur := time.Since(start)
		c.calls.note("recover", nil, false)
		c.calls.note("optimize", err, isRefusal(err))
		if c.measuring {
			c.w.restore.add(dur)
		}
		c.failed = false
	}
}

// drain ends every session and grant the client still holds.
func (c *lifeClient) drain() {
	b := c.st.broker
	for _, s := range c.live {
		err := b.Terminate(s.id, "drain")
		c.calls.note("terminate", err, lapsed(b, s.id, err))
	}
	c.live = nil
	if c.beHeld {
		err := b.BestEffortRelease(c.name + "-be")
		c.calls.note("be-release", err, errors.Is(err, core.ErrUnknownUser))
		c.beHeld = false
	}
}
