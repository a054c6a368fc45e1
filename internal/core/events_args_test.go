package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/faultx"
	"gqosm/internal/nrm"
	"gqosm/internal/resource"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
)

var (
	timeType  = reflect.TypeOf(time.Time{})
	errorType = reflect.TypeOf((*error)(nil)).Elem()
)

// valueArg reports why v could render differently at read time than at
// write time, or "" when it cannot: v must be a scalar, a time, an error
// (errors are immutable by convention), or an array or struct built only
// from those. Pointers, maps, slices, channels, funcs and interfaces
// could all reach live state.
func valueArg(v reflect.Value) string {
	if !v.IsValid() {
		return ""
	}
	t := v.Type()
	if t.Implements(errorType) || t.ConvertibleTo(timeType) {
		return ""
	}
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if why := valueArg(v.Index(i)); why != "" {
				return why
			}
		}
		return ""
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if why := valueArg(v.Field(i)); why != "" {
				return fmt.Sprintf("%s.%s: %s", t, t.Field(i).Name, why)
			}
		}
		return ""
	}
	return fmt.Sprintf("%s is a %s", t, t.Kind())
}

func TestValueArgRejectsReferences(t *testing.T) {
	doc := &sla.Document{}
	for _, a := range []any{doc, map[string]int{}, []int{1}, struct{ D *sla.Document }{doc}, func() {}} {
		if valueArg(reflect.ValueOf(a)) == "" {
			t.Errorf("valueArg accepted %T", a)
		}
	}
	for _, a := range []any{"s", 1, 2.5, true, sla.StateActive, sla.ID("x"), resource.Nodes(1),
		time.Now(), fmt.Errorf("e: %w", core.ErrClosed), [2]float64{}, nil} {
		if why := valueArg(reflect.ValueOf(a)); why != "" {
			t.Errorf("valueArg rejected %T: %s", a, why)
		}
	}
}

// TestEventArgsAreValues guards lazy rendering: the activity log stores
// format args and renders them only when read, so an arg that points
// into live state would render the state at read time, not at the
// event. A broad run — the §5.6 timeline, a chaos seed through the
// intake, a renegotiation storm, a crashed hand-off and a failing WAL —
// must log only value args.
func TestEventArgsAreValues(t *testing.T) {
	var (
		mu    sync.Mutex
		kinds = map[string]int{}
		bad   = map[string]string{}
	)
	restore := core.SetRecordHook(func(kind string, args []any) {
		mu.Lock()
		defer mu.Unlock()
		kinds[kind]++
		for i, a := range args {
			if why := valueArg(reflect.ValueOf(a)); why != "" {
				bad[fmt.Sprintf("%s arg %d", kind, i)] = why
			}
		}
	})
	defer restore()

	if _, err := sim.RunE56(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunChaos(sim.ChaosConfig{Seed: 7, Ops: 2000, Phases: 4, Intake: true}); err != nil {
		t.Fatal(err)
	}
	storm, ok := sim.LookupScenario("reneg-storm")
	if !ok {
		t.Fatal("reneg-storm scenario missing")
	}
	if _, err := sim.RunScenario(storm, sim.ScenarioConfig{Seed: 1, Ops: 1500, Phases: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunHandoffCrash(sim.HandoffCrashConfig{Seed: 1, Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	runCongestion(t)
	runWALFailure(t)

	for _, kind := range []string{"offer", "sla", "invoke", "clearing", "adapt", "violation",
		"degradation", "verify", "failure", "renegotiate", "handoff", "recover", "wal"} {
		if kinds[kind] == 0 {
			t.Errorf("no %q event logged; the run no longer covers that path", kind)
		}
	}
	for where, why := range bad {
		t.Errorf("%s: %s", where, why)
	}
}

// runCongestion congests the link under an active network session until
// the ladder records a violation and switches to the alternative QoS,
// then clears the congestion and verifies again.
func runCongestion(t *testing.T) {
	t.Helper()
	c, err := sim.NewCluster(sim.ClusterConfig{
		Plan: core.CapacityPlan{
			Guaranteed: resource.Capacity{CPU: 15, BandwidthMbps: 70},
			Adaptive:   resource.Capacity{CPU: 6, BandwidthMbps: 20},
			BestEffort: resource.Capacity{CPU: 5, BandwidthMbps: 10},
		},
		WithNetwork:   true,
		ConfirmWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := sla.NewSpec(sla.Exact(resource.BandwidthMbps, 45))
	spec.SourceIP, spec.DestIP = "10.10.3.4", "192.200.168.33"
	offer, err := c.Broker.RequestService(core.Request{
		Service: "simulation", Client: "viz", Class: sla.ClassGuaranteed, Spec: spec,
		Start: sim.Epoch, End: sim.Epoch.Add(5 * time.Hour), AcceptDegradation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := c.Broker.Accept(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Broker.Invoke(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Topo.SetCongestion("site-a", "site-c", nrm.Congestion{BandwidthFactor: 0.4}); err != nil {
		t.Fatal(err)
	}
	c.Clock.Advance(30 * time.Minute)
	c.NetMgr.CheckAll(c.Clock.Now())
	_, _ = c.Broker.Verify(id)
	if err := c.Topo.SetCongestion("site-a", "site-c", nrm.Congestion{}); err != nil {
		t.Fatal(err)
	}
	c.Clock.Advance(30 * time.Minute)
	_, _ = c.Broker.Verify(id)
}

// runWALFailure seals a durable broker's log with an injected append
// error, so the WAL-error events are logged.
func runWALFailure(t *testing.T) {
	t.Helper()
	clock := clockx.NewManual(sim.Epoch)
	inj := faultx.New(1, clock)
	c, err := sim.NewCluster(sim.ClusterConfig{
		Plan:   sim.DefaultParallelPlan(),
		Clock:  clock,
		Faults: inj,
		WAL:    core.DurabilityConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inj.SetPlan("wal.append", faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindError}})
	_, _ = c.Broker.RequestService(core.Request{
		Service: "simulation", Client: "wal", Class: sla.ClassGuaranteed,
		Spec:  sla.NewSpec(sla.Exact(resource.CPU, 1)),
		Start: sim.Epoch, End: sim.Epoch.Add(time.Hour),
	})
}
