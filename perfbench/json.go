package main

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/httpapi"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// json-durable: an open loop over JSON/HTTP against a broker with the
// group-commit intake and the fsync'd WAL on, as `aqosd -intake -wal-dir`
// deploys it. Arrivals follow a seeded Poisson schedule at a fixed rate;
// each requests a session, accepts or rejects the offer, and tears an
// accepted session down after a seeded hold. Two workers, each with one
// connection, serve the schedule; every call is timed from when it was
// due. Failures within the adaptive reserve and their recoveries are
// scheduled in the same stream and handled in process. The run ends with
// Broker.Crash and core.Recover on the run's WAL.

var jsonPlan = core.CapacityPlan{
	Guaranteed: resource.Capacity{CPU: 512, MemoryMB: 524288, DiskGB: 4096},
	Adaptive:   resource.Capacity{CPU: 64, MemoryMB: 65536, DiskGB: 512},
	BestEffort: resource.Capacity{CPU: 64, MemoryMB: 65536, DiskGB: 512},
}

const (
	jsonRate       = 80 // arrivals per second, about half of what this loop sustains on 2 vCPUs
	jsonWorkers    = 2
	jsonWarmup     = time.Second
	jsonLimit      = 50 * time.Millisecond
	jsonEventEvery = 50 * time.Millisecond
	jsonRecoveries = 15
	jsonGrace      = 2 * time.Second
	jsonMaxCPU     = 6
)

// item kinds of the open-loop schedule.
const (
	itemArrival = iota
	itemTeardown
	itemFailure
	itemRecovery
)

// schedItem is one scheduled call, due at an offset from the run start.
type schedItem struct {
	due    time.Duration
	kind   int
	hold   time.Duration // arrival: how long an accepted session lives
	accept bool          // arrival: accept (true) or reject the offer
	req    core.Request  // arrival: the ask
	id     sla.ID        // teardown: the session
	us     float64       // teardown: the session's call time so far
	offCPU float64       // failure: capacity taken offline
	prune  bool          // recovery: prune terminal state afterwards
}

// openLoopSchedule generates the arrivals and capacity events due within
// d, a pure function of the seed. Arrivals are a Poisson process at the
// given rate conditioned on its count: rate×d arrival times drawn
// uniformly over d, so every run offers the same number of sessions.
func openLoopSchedule(seed int64, rate int, d time.Duration) []schedItem {
	rng := rand.New(rand.NewSource(seed*31_337 + 11))
	n := int(float64(rate) * d.Seconds())
	times := make([]time.Duration, n)
	for i := range times {
		times[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := make([]schedItem, 0, n+2*int(d/jsonEventEvery))
	for i, t := range times {
		dr := draw{r1: rng.Intn(1 << 16), r2: rng.Intn(1 << 16), r3: rng.Intn(1 << 16)}
		out = append(out, schedItem{
			due:    t,
			kind:   itemArrival,
			hold:   time.Duration(100+rng.Intn(800)) * time.Millisecond,
			accept: rng.Intn(100) < 85,
			req:    computeRequest(dr, epoch, "j"+strconv.Itoa(i+1), jsonMaxCPU),
		})
	}
	for i, t := 0, jsonEventEvery/4; t < d; i, t = i+1, t+jsonEventEvery {
		jitter := time.Duration(rng.Int63n(int64(jsonEventEvery / 5)))
		out = append(out,
			schedItem{due: t + jitter, kind: itemFailure, offCPU: float64(4 + rng.Intn(int(jsonPlan.Adaptive.CPU)-4))},
			schedItem{due: t + jitter + jsonEventEvery/2, kind: itemRecovery, prune: i%20 == 19})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// schedHeap orders pending items by due time.
type schedHeap []*schedItem

func (h schedHeap) Len() int           { return len(h) }
func (h schedHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h schedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *schedHeap) Push(x any)        { *h = append(*h, x.(*schedItem)) }
func (h *schedHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// openLoop runs a schedule against the stack.
type openLoop struct {
	st      *stack
	w       *window
	calls   *callStats
	start   time.Time
	warm    time.Duration
	end     time.Duration
	clients []*httpapi.Client

	mu      sync.Mutex
	pending schedHeap
	// shed counts arrivals never dispatched because the generator fell
	// too far behind.
	shed int
}

func (o *openLoop) measuring(due time.Duration) bool { return due >= o.warm && due < o.end }

func (o *openLoop) push(it *schedItem) {
	o.mu.Lock()
	heap.Push(&o.pending, it)
	o.mu.Unlock()
}

// next pops the earliest item due before the end, sleeping until it is
// due; ok is false once nothing is due before the end, or once the
// generator has fallen jsonGrace behind the end of the window (an
// overloaded broker sheds the rest of the schedule instead of running
// the benchmark past its time).
func (o *openLoop) next() (*schedItem, bool) {
	for {
		if time.Since(o.start) >= o.end+jsonGrace {
			return nil, false
		}
		o.mu.Lock()
		if o.pending.Len() == 0 || o.pending[0].due >= o.end {
			o.mu.Unlock()
			if time.Since(o.start) >= o.end {
				return nil, false
			}
			time.Sleep(200 * time.Microsecond)
			continue
		}
		head := o.pending[0]
		wait := head.due - time.Since(o.start)
		if wait <= 0 {
			heap.Pop(&o.pending)
			o.mu.Unlock()
			return head, true
		}
		o.mu.Unlock()
		if wait > 2*time.Millisecond {
			time.Sleep(time.Millisecond) // wake to pick up teardowns pushed meanwhile
			continue
		}
		preciseSleep(wait)
	}
}

// run dispatches every item due before the end to the workers, which
// hand each to do, and waits for them.
func (o *openLoop) run(do func(c *httpapi.Client, it *schedItem)) {
	work := make(chan *schedItem)
	var wg sync.WaitGroup
	for i := 0; i < jsonWorkers; i++ {
		wg.Add(1)
		go func(c *httpapi.Client) {
			defer wg.Done()
			for it := range work {
				do(c, it)
			}
		}(o.clients[i])
	}
	for {
		it, ok := o.next()
		if !ok {
			break
		}
		work <- it
		if o.measuring(it.due) {
			o.w.late.add(time.Since(o.start) - it.due)
		}
	}
	close(work)
	wg.Wait()
	o.mu.Lock()
	for _, it := range o.pending {
		if it.kind == itemArrival && it.due < o.end {
			o.shed++
		}
	}
	o.mu.Unlock()
}

func (o *openLoop) exec(c *httpapi.Client, it *schedItem) {
	b, tr := o.st.broker, o.st.tr
	due := o.start.Add(it.due)
	rec := o.measuring(it.due)
	switch it.kind {
	case itemArrival:
		tk := tr.begin("httpapi.request")
		offer, err := c.RequestService(it.req)
		end := time.Now()
		var id sla.ID
		if err == nil {
			id = sla.ID(offer.SLAID)
		}
		tr.finishCall(tk, string(id))
		o.calls.note("request", err, isRefusal(err))
		if rec {
			o.w.admission(end.Sub(due), err == nil)
		}
		if err != nil {
			return
		}
		us := float64(end.Sub(due).Nanoseconds()) / 1e3
		action := "reject"
		if it.accept {
			action = "accept"
		}
		tk = tr.begin("httpapi." + action)
		_, err = c.Act(id, action, "")
		us += float64(time.Since(end).Nanoseconds()) / 1e3
		tr.finishCall(tk, string(id))
		o.calls.note(action, err, false)
		if err != nil {
			return
		}
		if !it.accept {
			if rec {
				o.w.session.addUS(us)
				o.w.sessionsDone.Add(1)
			}
			return
		}
		o.push(&schedItem{due: it.due + it.hold, kind: itemTeardown, id: id, us: us})
	case itemTeardown:
		tk := tr.begin("httpapi.terminate")
		_, err := c.Act(it.id, "terminate", "hold elapsed")
		d := time.Since(due)
		tr.finishCall(tk, string(it.id))
		o.calls.note("terminate", err, lapsed(b, it.id, err))
		if err == nil && rec {
			o.w.session.addUS(it.us + float64(d.Nanoseconds())/1e3)
			o.w.sessionsDone.Add(1)
		}
	case itemFailure:
		tk := tr.begin("core.notify_failure")
		pre := b.NotifyFailure(resource.Nodes(it.offCPU))
		d := time.Since(due)
		tr.finish(tk, "")
		o.calls.note("failure", nil, false)
		if rec {
			o.w.adapt.add(d)
			o.w.events.Add(1)
			o.w.preempted.Add(int64(len(pre)))
		}
	case itemRecovery:
		tk := tr.begin("core.notify_failure")
		b.NotifyFailure(resource.Capacity{})
		tr.finish(tk, "")
		tk = tr.begin("core.optimizer")
		_, err := b.RunOptimizer()
		tr.finish(tk, "")
		d := time.Since(due)
		o.calls.note("recover", nil, false)
		o.calls.note("optimize", err, isRefusal(err))
		if rec {
			o.w.restore.add(d)
		}
		if it.prune {
			// Operator housekeeping, untimed: drop terminal sessions and
			// canceled reservations so the working set stays flat.
			b.PruneTerminal()
			o.st.gara.PruneCanceled()
		}
	}
}

func runJSON(rc runCtx) (*result, error) {
	w := newWindow(jsonLimit)
	w.tr = rc.tr
	var dirs []string
	defer func() {
		for _, d := range dirs {
			_ = os.RemoveAll(d)
		}
	}()
	st, err := buildStacks(w, func() (*stack, error) {
		dir, err := tempDir(rc, "wal-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		st, err := newStack(stackConfig{Plan: jsonPlan, Shards: 1, WALDir: dir, Intake: true, Tracer: rc.tr})
		if err != nil {
			return nil, err
		}
		if err := st.serve(""); err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { st.close() }()

	warm := jsonWarmup
	if rc.tiny {
		warm = 200 * time.Millisecond
	}
	o := &openLoop{st: st, w: w, calls: newCallStats(), warm: warm, end: warm + rc.dur}
	for i := 0; i < jsonWorkers; i++ {
		o.clients = append(o.clients, &httpapi.Client{Endpoint: st.url, HTTPClient: st.httpClient()})
	}
	for _, it := range openLoopSchedule(rc.seed, jsonRate, o.end) {
		it := it
		o.pending = append(o.pending, &it)
	}
	heap.Init(&o.pending)

	// Counters are read at the warm-up boundary by a timer; a call in
	// flight at that instant is counted in the window.
	var before counterSnap
	var hp *heapSampler
	var snapMu sync.Mutex
	snapMu.Lock()
	timer := time.AfterFunc(warm, func() {
		before = takeSnap(st.obs, st.broker)
		hp = startHeapSampler()
		rc.tr.record(true)
		snapMu.Unlock()
	})
	o.start = time.Now()
	o.run(o.exec)
	snapMu.Lock()
	rc.tr.record(false)
	timer.Stop()
	w.heapPeakMB = hp.finish()
	w.delta = before.to(takeSnap(st.obs, st.broker))
	w.seconds = rc.dur.Seconds()
	for _, c := range o.clients {
		c.HTTPClient.CloseIdleConnections()
	}
	if err := st.srv.Close(); err != nil {
		return nil, err
	}
	st.srv = nil
	w.walRecB = walRecordBytes(st.cfg.Durability.Dir)

	if err := recoverFromWAL(rc, w, st, &dirs); err != nil {
		return nil, err
	}

	// Drain on the recovered broker: tear down what the schedule left.
	b := st.broker
	b.NotifyFailure(resource.Capacity{})
	for _, doc := range b.Sessions(func(d *sla.Document) bool { return !d.State.Terminal() }) {
		err := b.Terminate(doc.ID, "drain")
		o.calls.note("terminate", err, false)
	}
	if err := checkCalls(o.calls); err != nil {
		return nil, err
	}
	if err := checkDrained(st); err != nil {
		return nil, err
	}
	e := w.e2e()
	return &result{
		e2e: e, layers: w.layers(),
		attempted: o.calls.attempted.Load(), failed: o.calls.failed.Load(),
		cacheHits: w.delta.cacheHits, cacheMisses: w.delta.cacheMisses, unitCost: e["admit_p50_us"],
		notes: map[string]any{"requests": w.requests.Load(), "admitted": w.admitted.Load(),
			"sessions": w.sessionsDone.Load(), "failure_events": w.events.Load(),
			"offered_rate_per_s": jsonRate, "goodput_limit_ms": jsonLimit.Milliseconds(),
			"wal_replayed_records": w.replayed, "shed_arrivals": o.shed},
	}, nil
}

// recoverFromWAL crashes the broker and recovers it from copies of its
// WAL, timing each recovery; every recovered broker's state digest must
// equal the pre-crash digest. The last recovered broker replaces the
// crashed one in st.
func recoverFromWAL(rc runCtx, w *window, st *stack, dirs *[]string) error {
	b := st.broker
	pre, err := digestBroker(b)
	if err != nil {
		return err
	}
	b.Crash()
	src := st.cfg.Durability.Dir
	for i := 0; i < jsonRecoveries; i++ {
		dir, err := tempDir(rc, "wal-copy-")
		if err != nil {
			return err
		}
		*dirs = append(*dirs, dir)
		if err := copyDir(src, dir); err != nil {
			return err
		}
		cfg := st.cfg
		cfg.Durability.Dir = dir
		start := time.Now()
		nb, stats, err := core.Recover(cfg)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		w.recovery = append(w.recovery, time.Since(start).Seconds())
		if i == 0 {
			w.replayed = int64(stats.ReplayedRecords)
		}
		post, err := digestBroker(nb)
		if err != nil {
			return err
		}
		if post != pre {
			return gatef("recovered state digest differs from the pre-crash digest (recovery %d)", i)
		}
		if i < jsonRecoveries-1 {
			nb.Crash()
			continue
		}
		st.broker = nb
		st.cfg = cfg
	}
	return nil
}

func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// stateDigest is the comparable image of a broker's externally
// observable state: sessions, allocator books, best-effort tables and
// ledger aggregates.
type stateDigest struct {
	Sessions []sessionDigest `json:"sessions"`
	Shards   []shardDigest   `json:"shards"`
	Net      float64         `json:"ledger_net"`
	Totals   map[int]float64 `json:"ledger_totals"`
	Entries  int             `json:"ledger_entries"`
}

type sessionDigest struct {
	ID         sla.ID            `json:"id"`
	State      sla.State         `json:"state"`
	Degraded   bool              `json:"degraded"`
	Violations int               `json:"violations"`
	Handle     string            `json:"handle"`
	Allocated  resource.Capacity `json:"allocated"`
}

type shardDigest struct {
	Guaranteed []string          `json:"guaranteed"`
	AvailG     resource.Capacity `json:"avail_guaranteed"`
	AvailBE    resource.Capacity `json:"avail_best_effort"`
	Offline    resource.Capacity `json:"offline"`
	BestEffort []core.BEState    `json:"best_effort"`
}

func digestBroker(b *core.Broker) (string, error) {
	var d stateDigest
	alloc := make(map[sla.ID]resource.Capacity)
	for _, doc := range b.Sessions(nil) {
		alloc[doc.ID] = doc.Allocated
	}
	for _, info := range b.SessionInfos() {
		d.Sessions = append(d.Sessions, sessionDigest{ID: info.ID, State: info.State, Degraded: info.Degraded,
			Violations: info.Violations, Handle: string(info.Handle), Allocated: alloc[info.ID]})
	}
	sort.Slice(d.Sessions, func(i, j int) bool { return d.Sessions[i].ID < d.Sessions[j].ID })
	for _, a := range b.Allocators() {
		users := a.GuaranteedUsers()
		sort.Strings(users)
		offline, be, _ := a.ExportAux()
		d.Shards = append(d.Shards, shardDigest{Guaranteed: users, AvailG: a.AvailableGuaranteed(),
			AvailBE: a.AvailableBestEffort(), Offline: offline, BestEffort: be})
	}
	b.Ledger().ExportWith(func(s pricing.State) {
		d.Net, d.Entries = s.Net, len(s.Entries)+int(s.Evicted)
		d.Totals = make(map[int]float64, len(s.Totals))
		for k, v := range s.Totals {
			d.Totals[int(k)] = v
		}
	})
	data, err := json.Marshal(d)
	if err != nil {
		return "", errors.New("digest: " + err.Error())
	}
	return string(data), nil
}
