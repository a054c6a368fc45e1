package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// DefEventLogCap bounds the broker activity log: enough to hold the
// recent history of a busy domain. A record with its stored args takes
// about 230 bytes, so a full ring stays under 1 MiB per broker.
const DefEventLogCap = 4096

// inlineArgs is how many log args a ring record stores without
// allocating; every hot-path log call passes at most this many.
const inlineArgs = 4

// Event is one entry of the broker activity log (the Fig. 6 console).
// Transition events — a session changed lifecycle state or allocation —
// also carry the states on either side (From is zero for a session's
// creation) and Delta, the capacity change the transition applied to
// the session's grant. Other events leave all three zero.
type Event struct {
	At    time.Time
	Kind  string
	SLA   sla.ID
	Msg   string
	From  sla.State
	To    sla.State
	Delta resource.Capacity
}

// String renders the event as a log line.
func (e Event) String() string {
	if e.SLA != "" {
		return fmt.Sprintf("%s [%s] (%s) %s", e.At.Format("15:04:05"), e.Kind, e.SLA, e.Msg)
	}
	return fmt.Sprintf("%s [%s] %s", e.At.Format("15:04:05"), e.Kind, e.Msg)
}

// clockOfDay renders a time as the console's HH:MM:SS when the event is
// read, so a logged time needs no formatting on the hot path.
type clockOfDay time.Time

func (t clockOfDay) String() string { return time.Time(t).Format("15:04:05") }

// eventRecord is one ring slot, kept compact because the ring holds
// DefEventLogCap of them: the event's fields and, until it is first read,
// the format and args its message renders from. Args are stored inline,
// so a log call allocates no slice; a call with more than inlineArgs
// args is rendered when it is added.
type eventRecord struct {
	at       time.Time
	kind     string
	id       sla.ID
	delta    resource.Capacity
	text     string // the format until rendered, then the message
	argv     [inlineArgs]any
	argc     int8
	from, to int8 // sla.State values, all small
	rendered bool
}

// event returns the record as an Event, rendering it first if needed.
func (rec *eventRecord) event() Event {
	if !rec.rendered {
		rec.text = fmt.Sprintf(rec.text, rec.argv[:rec.argc]...)
		rec.argv, rec.argc, rec.rendered = [inlineArgs]any{}, 0, true
	}
	return Event{At: rec.at, Kind: rec.kind, SLA: rec.id, Msg: rec.text,
		From: sla.State(rec.from), To: sla.State(rec.to), Delta: rec.delta}
}

// eventRing is the broker's activity log: a ring of up to limit
// structured events that evicts the oldest when full. Its storage grows
// on demand up to the limit, so a short-lived broker pays only for what
// it logs. Writers store the format and args instead of a formatted
// message, so the hot paths pay no formatting; each record is rendered
// to Event.Msg at most once, on the first events call that sees it. Args
// must therefore be values (strings, numbers, states, capacities, times,
// errors) that render the same at read time as at write time — never a
// pointer into live state. Their String and Error methods run under mu,
// so they must not call back into the broker.
//
// mu is a leaf lock: safe to take with or without a shard lock held,
// never held while acquiring another lock.
type eventRing struct {
	mu    sync.Mutex
	limit int
	buf   []eventRecord
	next  int   // index the next record is written to
	total int64 // records ever added, including evicted ones
	// snap caches the flattened, oldest-first snapshot events built last
	// time, valid while total == snapTotal. It is immutable once built —
	// add never writes into it — so events can hand it out shared instead
	// of copying the whole ring on every call (the invariant oracle reads
	// it after every mutating op).
	snap      []Event
	snapTotal int64
}

// recordHook, when set, sees the kind and args of every record as it is
// added. Tests install it to check that every call site passes values;
// it is nil otherwise.
var recordHook atomic.Pointer[func(kind string, args []any)]

// newEventRing returns a ring holding up to capacity events.
func newEventRing(capacity int) *eventRing {
	return &eventRing{limit: capacity}
}

// add appends a record, evicting the oldest when the ring is full. It
// copies args rather than keeping the caller's slice.
func (r *eventRing) add(ev Event, format string, args []any) {
	if hook := recordHook.Load(); hook != nil {
		// A copy, so args stays on the caller's stack when no hook is set.
		(*hook)(ev.Kind, append([]any(nil), args...))
	}
	text, rendered := format, false
	if len(args) > inlineArgs {
		text, rendered = fmt.Sprintf(format, args...), true
	}
	r.mu.Lock()
	if len(r.buf) < r.limit {
		if len(r.buf) == cap(r.buf) {
			grown := make([]eventRecord, len(r.buf), min(max(2*len(r.buf), 64), r.limit))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = r.buf[:len(r.buf)+1]
	}
	rec := &r.buf[r.next]
	*rec = eventRecord{at: ev.At, kind: ev.Kind, id: ev.SLA, delta: ev.Delta,
		from: int8(ev.From), to: int8(ev.To), text: text, rendered: rendered}
	if !rendered {
		rec.argc = int8(copy(rec.argv[:], args))
	}
	r.next = (r.next + 1) % r.limit
	r.total++
	r.mu.Unlock()
}

// events returns the retained events, oldest first, rendering any record
// not yet rendered. The result is a shared immutable snapshot.
func (r *eventRing) events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.snap != nil && r.snapTotal == r.total {
		return r.snap
	}
	out := make([]Event, 0, len(r.buf))
	for i := range r.buf {
		// Until the ring wraps, next == len(buf) and this starts at 0;
		// after, the oldest record sits at next.
		out = append(out, r.buf[(r.next+i)%len(r.buf)].event())
	}
	r.snap = out
	r.snapTotal = r.total
	return out
}

// count returns how many events were ever added.
func (r *eventRing) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
