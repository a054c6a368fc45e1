package gara

import (
	"errors"
	"testing"

	"gqosm/internal/clockx"
	"gqosm/internal/faultx"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
)

// binderManager is a compute manager that also records claims, to check
// WrapManager keeps the Binder capability.
type binderManager struct {
	*ComputeManager
	bound map[string]int
}

func (m *binderManager) Bind(token string, p BindParam) error { m.bound[token] = p.PID; return nil }
func (m *binderManager) Unbind(token string) error            { delete(m.bound, token); return nil }

func TestWrapManagerNilInjectorIsIdentity(t *testing.T) {
	rm := NewComputeManager(resource.NewPool("p", resource.Nodes(4)))
	if got := WrapManager(rm, nil); got != rm {
		t.Fatalf("nil injector wrapped the manager: %T", got)
	}
}

// TestWrapManagerInjectsAtSites drives each injection site through the
// fault wrapper: transparent with no fault, failing without side effect
// on an error, and committing-then-failing on a partial.
func TestWrapManagerInjectsAtSites(t *testing.T) {
	pool := resource.NewPool("p", resource.Nodes(8))
	inj := faultx.New(1, clockx.NewManual(t0))
	rm := WrapManager(NewComputeManager(pool), inj)
	if rm.Type() != TypeCompute {
		t.Fatalf("type = %q", rm.Type())
	}
	if _, ok := rm.(Binder); ok {
		t.Fatal("wrapped compute manager claims Binder")
	}
	two, _ := rsl.Parse(`&(count=2)`)
	three, _ := rsl.Parse(`&(count=3)`)

	// No plan: every call is transparent.
	tok, err := rm.Reserve(two, t0, tEnd, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Modify(tok, three); err != nil {
		t.Fatal(err)
	}
	if got := pool.Available(t0); !got.Equal(resource.Nodes(5)) {
		t.Fatalf("after modify available = %v, want 5 nodes", got)
	}

	errOnly := faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindError}}
	inj.SetPlan("gara.compute.modify", errOnly)
	inj.SetPlan("gara.compute.cancel", errOnly)
	if err := rm.Modify(tok, two); !errors.Is(err, faultx.ErrInjected) {
		t.Fatalf("modify under fault: %v", err)
	}
	if err := rm.Cancel(tok); !errors.Is(err, faultx.ErrInjected) {
		t.Fatalf("cancel under fault: %v", err)
	}
	if got := pool.Available(t0); !got.Equal(resource.Nodes(5)) {
		t.Fatalf("failed calls changed the pool: available %v", got)
	}

	// A partial reserve commits but loses the reply: no token, capacity
	// taken — the lost-response shape reconciliation has to clean up.
	inj.SetPlan("gara.compute.reserve", faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindPartial}})
	if tok2, err := rm.Reserve(two, t0, tEnd, "b"); !errors.Is(err, faultx.ErrInjected) || tok2 != "" {
		t.Fatalf("partial reserve = %q, %v", tok2, err)
	}
	if got := pool.Available(t0); !got.Equal(resource.Nodes(3)) {
		t.Fatalf("partial reserve did not commit: available %v", got)
	}
	if got := inj.CountsBySite(); got["gara.compute.modify"] != 1 || got["gara.compute.cancel"] != 1 ||
		got["gara.compute.reserve"] != 1 {
		t.Fatalf("per-site counts = %v", got)
	}
}

// TestWrapManagerKeepsBinder: Bind/Unbind pass straight through and are
// never injection sites.
func TestWrapManagerKeepsBinder(t *testing.T) {
	inner := &binderManager{ComputeManager: NewComputeManager(resource.NewPool("p", resource.Nodes(4))),
		bound: map[string]int{}}
	inj := faultx.New(1, clockx.NewManual(t0))
	inj.SetDefault(faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindError}})
	b, ok := WrapManager(inner, inj).(Binder)
	if !ok {
		t.Fatal("wrapped Binder lost its capability")
	}
	if err := b.Bind("tok", BindParam{PID: 42}); err != nil || inner.bound["tok"] != 42 {
		t.Fatalf("bind: %v, bound %v", err, inner.bound)
	}
	if err := b.Unbind("tok"); err != nil || len(inner.bound) != 0 {
		t.Fatalf("unbind: %v, bound %v", err, inner.bound)
	}
	if inj.Total() != 0 {
		t.Fatalf("claim bookkeeping drew %d fault(s)", inj.Total())
	}
}
