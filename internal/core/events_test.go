package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

func TestEventRingPartialFill(t *testing.T) {
	r := newEventRing(8)
	r.add(Event{Kind: "a"}, "first", nil)
	r.add(Event{Kind: "b", SLA: "s-1", From: sla.StateProposed, To: sla.StateEstablished, Delta: resource.Nodes(2)},
		"second %v", []any{resource.Nodes(2)})
	// More args than the record stores inline: rendered at once.
	r.add(Event{Kind: "c"}, "%d%d%d%d%d", []any{1, 2, 3, 4, 5})
	ev := r.events()
	if len(ev) != 3 || ev[0].Msg != "first" || ev[1].Msg != "second cpu=2" || ev[2].Msg != "12345" {
		t.Fatalf("events = %+v", ev)
	}
	if ev[1].From != sla.StateProposed || ev[1].To != sla.StateEstablished || !ev[1].Delta.Equal(resource.Nodes(2)) {
		t.Errorf("transition fields lost: %+v", ev[1])
	}
	if ev[0].From != 0 || ev[0].To != 0 || !ev[0].Delta.IsZero() {
		t.Errorf("plain event carries transition fields: %+v", ev[0])
	}
}

// TestEventRingEvictsOldest checks eviction at capacity: after ten adds
// to a ring of four, the total counts all ten and the snapshot holds the
// newest four, oldest first.
func TestEventRingEvictsOldest(t *testing.T) {
	r := newEventRing(4)
	for i := 0; i < 10; i++ {
		r.add(Event{Kind: "test", SLA: sla.ID(fmt.Sprintf("s%d", i)), At: time.Unix(int64(i), 0)}, "e%d", []any{i})
	}
	if r.count() != 10 {
		t.Fatalf("count = %d, want 10", r.count())
	}
	ev := r.events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := sla.ID(fmt.Sprintf("s%d", 6+i)); e.SLA != want || e.Msg != fmt.Sprintf("e%d", 6+i) {
			t.Fatalf("event %d = %q/%q, want %q (oldest-first)", i, e.SLA, e.Msg, want)
		}
	}
}

// renderCounter counts how often the ring renders it.
type renderCounter struct{ n *atomic.Int64 }

func (c renderCounter) String() string {
	c.n.Add(1)
	return "x"
}

// TestEventRingRendersOnce checks the lazy-rendering contract: nothing is
// formatted at add time, and each record is rendered exactly once across
// any number of snapshot rebuilds.
func TestEventRingRendersOnce(t *testing.T) {
	var n atomic.Int64
	r := newEventRing(4)
	for i := 0; i < 3; i++ {
		r.add(Event{Kind: "test"}, "%v", []any{renderCounter{&n}})
	}
	if got := n.Load(); got != 0 {
		t.Fatalf("%d render(s) at add time, want 0", got)
	}
	r.events()
	r.events()
	r.add(Event{Kind: "test"}, "%v", []any{renderCounter{&n}})
	r.events()
	if got := n.Load(); got != 4 {
		t.Errorf("%d render(s) for 4 records, want 4", got)
	}
}

func TestEventRingConcurrent(t *testing.T) {
	r := newEventRing(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.add(Event{Kind: "test"}, "w%d e%d", []any{w, i})
				for _, e := range r.events() {
					if e.Msg == "" {
						t.Error("snapshot holds an unrendered event")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if r.count() != 2000 {
		t.Fatalf("count = %d, want 2000", r.count())
	}
}

// TestPersistDoesNotAliasRepository pins the ownership rule: persist
// hands the repository its own clone, so later changes to the live
// session never show through Repo().Get.
func TestPersistDoesNotAliasRepository(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg, false)
	offer, err := b.RequestService(miniRequest())
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := b.Accept(id); err != nil {
		t.Fatal(err)
	}
	before, err := b.Repo().Get(id)
	if err != nil {
		t.Fatal(err)
	}

	sh := b.shardFor(id)
	sh.mu.Lock()
	live := sh.sessions[id].doc
	live.Allocated = live.Allocated.Add(resource.Nodes(5))
	live.Price += 100
	live.Spec.Params[resource.CPU] = sla.Exact(resource.CPU, 99)
	sh.mu.Unlock()

	after, err := b.Repo().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Allocated.Equal(before.Allocated) || after.Price != before.Price ||
		after.Spec.Params[resource.CPU].Exact != before.Spec.Params[resource.CPU].Exact {
		t.Errorf("repository document follows the live session: before %v at %.2f, after %v at %.2f",
			before.Allocated, before.Price, after.Allocated, after.Price)
	}
}
