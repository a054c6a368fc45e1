package main

import (
	"strconv"
	"sync"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// soap-lifecycle: a closed loop of two clients over the paper's SOAP/XML
// wire (core.Client against the mux gqosm's Stack.Mount builds), with no
// WAL and no intake. Each session requests, accepts, verifies,
// renegotiates and terminates. Every soapEventEvery sessions a client
// fails capacity within the adaptive reserve, or recovers it, in
// process.

var soapPlan = core.CapacityPlan{
	Guaranteed: resource.Capacity{CPU: 128, MemoryMB: 131072, DiskGB: 1024},
	Adaptive:   resource.Capacity{CPU: 32, MemoryMB: 32768, DiskGB: 256},
	BestEffort: resource.Capacity{CPU: 32, MemoryMB: 32768, DiskGB: 256},
}

const (
	soapClients    = 2
	soapWarmup     = time.Second
	soapLimit      = 5 * time.Millisecond
	soapEventEvery = 4
	soapMaxCPU     = 6
)

func runSOAP(rc runCtx) (*result, error) {
	w := newWindow(soapLimit)
	w.tr = rc.tr
	st, err := buildStacks(w, func() (*stack, error) {
		st, err := newStack(stackConfig{Plan: soapPlan, Shards: 1, Tracer: rc.tr})
		if err != nil {
			return nil, err
		}
		if err := st.serve("soapx.server"); err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { st.close() }()

	calls := newCallStats()
	clients := make([]*soapClient, soapClients)
	for i := range clients {
		c := core.NewClient(st.url)
		c.SOAP.HTTPClient = st.httpClient()
		clients[i] = &soapClient{idx: i, gen: newOpGen(rc.seed, i), st: st, w: w, calls: calls, c: c}
	}
	warm := soapWarmup
	if rc.tiny {
		warm = 200 * time.Millisecond
	}
	runSOAPFor(clients, warm)
	for _, c := range clients {
		c.measuring = true
	}
	before := takeSnap(st.obs, st.broker)
	heap := startHeapSampler()
	start := time.Now()
	rc.tr.record(true)
	runSOAPFor(clients, rc.dur)
	rc.tr.record(false)
	w.seconds = time.Since(start).Seconds()
	w.heapPeakMB = heap.finish()
	w.delta = before.to(takeSnap(st.obs, st.broker))
	for _, c := range clients {
		c.c.SOAP.HTTPClient.CloseIdleConnections()
	}

	st.broker.NotifyFailure(resource.Capacity{})
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
			"sessions": w.sessionsDone.Load(), "failure_events": w.events.Load()},
	}, nil
}

// runSOAPFor runs every client's session loop until d has elapsed; a
// session in progress at the deadline is finished.
func runSOAPFor(clients []*soapClient, d time.Duration) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *soapClient) {
			defer wg.Done()
			for time.Now().Before(end) {
				c.session()
			}
		}(c)
	}
	wg.Wait()
}

type soapClient struct {
	idx       int
	gen       *opGen
	st        *stack
	w         *window
	calls     *callStats
	c         *core.Client
	measuring bool
	n         int
	failed    bool
}

// call times one SOAP call under a client-side span.
func (c *soapClient) call(name string, id sla.ID, f func() error) (time.Duration, error) {
	tk := c.st.tr.begin(name)
	start := time.Now()
	err := f()
	d := time.Since(start)
	c.st.tr.finishCall(tk, string(id))
	return d, err
}

// session runs one SLA through its lifecycle over the wire.
func (c *soapClient) session() {
	d := c.gen.next()
	c.n++
	req := computeRequest(d, c.st.clock.Now(), "s"+strconv.Itoa(c.idx)+"-"+strconv.Itoa(c.n), soapMaxCPU)
	var id sla.ID
	dur, err := c.call("soap.request", "", func() error {
		offer, err := c.c.RequestService(req)
		if err == nil {
			id = sla.ID(offer.SLA.SLAID)
		}
		return err
	})
	c.calls.note("request", err, false)
	if c.measuring {
		c.w.admission(dur, err == nil)
	}
	if err != nil {
		return
	}
	total := dur
	steps := []struct {
		name string
		f    func() error
	}{
		{"soap.accept", func() error { _, err := c.c.Act(id, "accept", ""); return err }},
		{"soap.verify", func() error { _, err := c.c.Verify(id); return err }},
		{"soap.renegotiate", func() error {
			_, err := c.c.Renegotiate(id, renegotiatedSpec(d, req.Class, soapMaxCPU))
			return err
		}},
		{"soap.terminate", func() error { _, err := c.c.Act(id, "terminate", "done"); return err }},
	}
	for _, s := range steps {
		dur, err := c.call(s.name, id, s.f)
		c.calls.note(s.name, err, false)
		total += dur
		if err != nil {
			return
		}
	}
	if c.measuring {
		c.w.session.add(total)
		c.w.sessionsDone.Add(1)
	}
	if c.n%soapEventEvery == 0 {
		c.capacityEvent(d)
	}
}

// capacityEvent fails capacity within the adaptive reserve, or recovers
// it and runs the optimizer, in process.
func (c *soapClient) capacityEvent(d draw) {
	b, tr := c.st.broker, c.st.tr
	if !c.failed {
		tk := tr.begin("core.notify_failure")
		start := time.Now()
		pre := b.NotifyFailure(resource.Nodes(float64(4 + d.r3%int(soapPlan.Adaptive.CPU-4))))
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
	// Operator housekeeping, untimed: drop terminal sessions and
	// canceled reservations so the working set stays flat.
	b.PruneTerminal()
	c.st.gara.PruneCanceled()
}
