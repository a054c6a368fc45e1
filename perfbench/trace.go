package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/gara"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
	"gqosm/internal/sla"
)

// This file is the traced run's instrumentation: an in-memory span
// recorder and forwarding wrappers for the interfaces the broker already
// accepts. Every wrapper forwards the optional interfaces of what it
// wraps (Generation/Epoch on a finder, gara.Binder on a manager), so the
// traced program takes the same paths as the untraced one. A nil
// *tracer is the untraced run: its methods return the wrapped value
// unchanged and record nothing.

// spanHeader carries the client-side span id to the server-side
// handler wrapper, which runs on another goroutine.
const spanHeader = "X-Perfbench-Span"

// maxKeptSpans bounds the span log written at the end of a traced run;
// durations for the per-layer figures are aggregated from every span.
const maxKeptSpans = 50000

// span is one recorded interval, in nanoseconds since the tracer began.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Session string `json:"session,omitempty"`
}

// token is an open span.
type token struct {
	name   string
	id     uint64
	parent uint64
	gid    uint64
	prev   uint64 // the goroutine's enclosing span, restored at finish
	start  time.Time
	scoped bool // the span is its goroutine's current span while open
}

// openSpan accumulates the time a scoped span's children cover, for its
// self time.
type openSpan struct{ childNS int64 }

// wirePair matches a client round trip with the server span it caused.
type wirePair struct {
	client, server   int64
	hasClient, hasSv bool
	name             string
}

type tracer struct {
	t0 time.Time
	// on gates aggregation: spans finished while it is false (warm-up,
	// set-up, drain) keep the span stack right but are not recorded.
	on atomic.Bool

	mu      sync.Mutex
	next    uint64
	cur     map[uint64]uint64 // goroutine id → its innermost scoped span
	open    map[uint64]*openSpan
	wire    map[uint64]*wirePair
	kept    []span
	dropped int64
	durs    map[string][]float64 // span name → durations, µs
	self    map[string][]float64 // scoped span name → self time, µs
	wireUS  map[string][]float64 // server span name → client minus server time, µs
	counts  map[string]int64
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		cur:    make(map[uint64]uint64),
		open:   make(map[uint64]*openSpan),
		wire:   make(map[uint64]*wirePair),
		durs:   make(map[string][]float64),
		self:   make(map[string][]float64),
		wireUS: make(map[string][]float64),
		counts: make(map[string]int64),
	}
}

// begin opens a scoped span: until it finishes, spans opened by wrappers
// on the same goroutine become its children.
func (t *tracer) begin(name string) *token {
	if t == nil {
		return nil
	}
	gid := goid()
	t.mu.Lock()
	t.next++
	tk := &token{name: name, id: t.next, gid: gid, prev: t.cur[gid], scoped: true}
	tk.parent = tk.prev
	t.cur[gid] = tk.id
	t.open[tk.id] = &openSpan{}
	t.mu.Unlock()
	tk.start = time.Now()
	return tk
}

// child opens a leaf span under the goroutine's current scoped span.
func (t *tracer) child(name string) *token {
	if t == nil {
		return nil
	}
	gid := goid()
	t.mu.Lock()
	t.next++
	tk := &token{name: name, id: t.next, gid: gid, parent: t.cur[gid]}
	t.mu.Unlock()
	tk.start = time.Now()
	return tk
}

// finish closes a span, attributing it to session when known.
func (t *tracer) finish(tk *token, session string) {
	if t == nil || tk == nil {
		return
	}
	end := time.Now()
	dur := end.Sub(tk.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	on := t.on.Load()
	if p := t.open[tk.parent]; p != nil {
		p.childNS += dur
	}
	if on {
		t.durs[tk.name] = append(t.durs[tk.name], float64(dur)/1e3)
	}
	if tk.scoped {
		if o := t.open[tk.id]; o != nil {
			if on {
				t.self[tk.name] = append(t.self[tk.name], float64(dur-o.childNS)/1e3)
			}
			delete(t.open, tk.id)
		}
		if tk.prev == 0 {
			delete(t.cur, tk.gid)
		} else {
			t.cur[tk.gid] = tk.prev
		}
	}
	if !on {
		return
	}
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{Name: tk.name, Start: tk.start.Sub(t.t0).Nanoseconds(),
			End: end.Sub(t.t0).Nanoseconds(), ID: tk.id, Parent: tk.parent, Session: session})
	} else {
		t.dropped++
	}
}

// record turns aggregation on or off; nil-safe.
func (t *tracer) record(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// count adds n to a named counter.
func (t *tracer) count(name string, n int64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// pairWire records one side of a client/server pair keyed by the client
// span; once both sides are in, the wire time is client minus server.
func (t *tracer) pairWire(clientSpan uint64, server string, ns int64, isServer bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.wire[clientSpan]
	if p == nil {
		p = &wirePair{}
		t.wire[clientSpan] = p
	}
	if isServer {
		p.server, p.hasSv, p.name = ns, true, server
	} else {
		p.client, p.hasClient = ns, true
	}
	if p.hasClient && p.hasSv {
		if t.on.Load() {
			t.wireUS[p.name] = append(t.wireUS[p.name], float64(p.client-p.server)/1e3)
		}
		delete(t.wire, clientSpan)
	}
}

// finishCall closes a scoped client-side span and offers its duration
// to the wire pairing.
func (t *tracer) finishCall(tk *token, session string) {
	if t == nil || tk == nil {
		return
	}
	ns := time.Since(tk.start).Nanoseconds()
	t.finish(tk, session)
	t.pairWire(tk.id, "", ns, false)
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- wrappers -------------------------------------------------------------

// finder wraps the discovery dependency.
func (t *tracer) finder(f core.Finder) core.Finder {
	if t == nil {
		return f
	}
	base := tracedFinder{f: f, t: t}
	g, ok := f.(interface{ Generation() uint64 })
	if !ok {
		return base
	}
	if e, ok := f.(interface{ Epoch() uint64 }); ok {
		return tracedEpochFinder{tracedGenFinder{base, g}, e}
	}
	return tracedGenFinder{base, g}
}

type tracedFinder struct {
	f core.Finder
	t *tracer
}

func (w tracedFinder) Find(q registry.Query) ([]*registry.Service, error) {
	tk := w.t.child("registry.find")
	out, err := w.f.Find(q)
	w.t.finish(tk, "")
	return out, err
}

type tracedGenFinder struct {
	tracedFinder
	g interface{ Generation() uint64 }
}

func (w tracedGenFinder) Generation() uint64 { return w.g.Generation() }

type tracedEpochFinder struct {
	tracedGenFinder
	e interface{ Epoch() uint64 }
}

func (w tracedEpochFinder) Epoch() uint64 { return w.e.Epoch() }

// manager wraps a GARA resource manager before it is registered.
func (t *tracer) manager(rm gara.ResourceManager) gara.ResourceManager {
	if t == nil {
		return rm
	}
	base := &tracedManager{rm: rm, t: t}
	if b, ok := rm.(gara.Binder); ok {
		return &tracedBinderManager{tracedManager: base, b: b}
	}
	return base
}

type tracedManager struct {
	rm gara.ResourceManager
	t  *tracer
}

func (m *tracedManager) Type() string { return m.rm.Type() }

func (m *tracedManager) Reserve(spec *rsl.Node, start, end time.Time, tag string) (string, error) {
	tk := m.t.child("gara.reserve")
	tok, err := m.rm.Reserve(spec, start, end, tag)
	m.t.finish(tk, tag)
	return tok, err
}

func (m *tracedManager) Modify(token string, spec *rsl.Node) error {
	tk := m.t.child("gara.modify")
	err := m.rm.Modify(token, spec)
	m.t.finish(tk, "")
	return err
}

func (m *tracedManager) Cancel(token string) error {
	tk := m.t.child("gara.cancel")
	err := m.rm.Cancel(token)
	m.t.finish(tk, "")
	return err
}

type tracedBinderManager struct {
	*tracedManager
	b gara.Binder
}

func (m *tracedBinderManager) Bind(token string, p gara.BindParam) error {
	tk := m.t.child("gara.bind")
	err := m.b.Bind(token, p)
	m.t.finish(tk, "")
	return err
}

func (m *tracedBinderManager) Unbind(token string) error {
	tk := m.t.child("gara.unbind")
	err := m.b.Unbind(token)
	m.t.finish(tk, "")
	return err
}

// repo wraps the SLA repository.
func (t *tracer) repo(r sla.Repository) sla.Repository {
	if t == nil {
		return r
	}
	return tracedRepo{r: r, t: t}
}

type tracedRepo struct {
	r sla.Repository
	t *tracer
}

func (w tracedRepo) Put(d *sla.Document) error {
	tk := w.t.child("sla.repo_put")
	err := w.r.Put(d)
	w.t.finish(tk, string(d.ID))
	return err
}

func (w tracedRepo) Get(id sla.ID) (*sla.Document, error) {
	tk := w.t.child("sla.repo_get")
	d, err := w.r.Get(id)
	w.t.finish(tk, string(id))
	return d, err
}

func (w tracedRepo) Delete(id sla.ID) error {
	tk := w.t.child("sla.repo_delete")
	err := w.r.Delete(id)
	w.t.finish(tk, string(id))
	return err
}

func (w tracedRepo) List(filter func(*sla.Document) bool) ([]*sla.Document, error) {
	tk := w.t.child("sla.repo_list")
	out, err := w.r.List(filter)
	w.t.finish(tk, "")
	return out, err
}

// rmAdapter wraps the RM-level adaptation hook.
func (t *tracer) rmAdapter(a core.RMAdapter) core.RMAdapter {
	if t == nil {
		return a
	}
	return tracedRM{a: a, t: t}
}

type tracedRM struct {
	a core.RMAdapter
	t *tracer
}

func (w tracedRM) TryRectify(id sla.ID, doc *sla.Document, measured resource.Capacity) bool {
	tk := w.t.child("rm.rectify")
	ok := w.a.TryRectify(id, doc, measured)
	w.t.finish(tk, string(id))
	w.t.count("rm.rectify_calls", 1)
	if ok {
		w.t.count("rm.rectify_ok", 1)
	}
	return ok
}

// handler wraps a server-side http.Handler under the named span; an
// empty name leaves the handler unwrapped.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil || name == "" {
		return h
	}
	return tracedHandler{name: name, h: h, t: t}
}

type tracedHandler struct {
	name string
	h    http.Handler
	t    *tracer
}

func (w tracedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	clientSpan, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	tk := w.t.begin(w.name)
	start := tk.start
	w.h.ServeHTTP(rw, r)
	ns := time.Since(start).Nanoseconds()
	w.t.finish(tk, "")
	if clientSpan != 0 {
		w.t.pairWire(clientSpan, w.name, ns, true)
	}
}

// roundTripper tags each outgoing request with the caller's current
// span, so the server-side span can be paired with it.
func (t *tracer) roundTripper(rt http.RoundTripper) http.RoundTripper {
	if t == nil {
		return rt
	}
	return tracedTransport{rt: rt, t: t}
}

type tracedTransport struct {
	rt http.RoundTripper
	t  *tracer
}

func (w tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	gid := goid()
	w.t.mu.Lock()
	cur := w.t.cur[gid]
	w.t.mu.Unlock()
	if cur != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(cur, 10))
	}
	return w.rt.RoundTrip(r)
}

// CloseIdleConnections forwards to the wrapped transport so
// http.Client.CloseIdleConnections still reaches the pool.
func (w tracedTransport) CloseIdleConnections() {
	if c, ok := w.rt.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}
