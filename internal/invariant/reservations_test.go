package invariant_test

import (
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/resource"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
)

const computeRSL = `&(reservation-type="compute")(count=1)`

func TestCheckReservationsHealthyDrain(t *testing.T) {
	c := newCluster(t)
	id := establish(t, c, "alice", 4)
	final := invariant.ReservationCheck{Final: true}
	if err := invariant.CheckReservations(c.Broker, c.GARA, final); err != nil {
		t.Fatalf("live session flagged: %v", err)
	}
	if err := c.Broker.Terminate(id, "done"); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckReservations(c.Broker, c.GARA, final); err != nil {
		t.Fatalf("clean drain flagged: %v", err)
	}
}

// TestCheckReservationsDuplicateTag commits a second live reservation
// under a session's idempotency tag — the double commit a retried
// two-phase create must never produce.
func TestCheckReservationsDuplicateTag(t *testing.T) {
	c := newCluster(t)
	id := establish(t, c, "bob", 2)
	now := c.Clock.Now()
	if _, err := c.GARA.Create(computeRSL, now, now.Add(4*time.Hour), string(id)); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckReservations(c.Broker, c.GARA, invariant.ReservationCheck{}); !hasRule(err, "duplicate-reservation-tag") {
		t.Fatalf("want duplicate-reservation-tag, got %v", err)
	}
}

// TestCheckReservationsLeak: after the drain, a reservation no live
// session owns is a leak; mid-run the rule stays quiet.
func TestCheckReservationsLeak(t *testing.T) {
	c := newCluster(t)
	now := c.Clock.Now()
	if _, err := c.GARA.Create(computeRSL, now, now.Add(4*time.Hour), "site-a-sla-9999"); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckReservations(c.Broker, c.GARA, invariant.ReservationCheck{}); err != nil {
		t.Fatalf("mid-run check applied a drain-only rule: %v", err)
	}
	if err := invariant.CheckReservations(c.Broker, c.GARA, invariant.ReservationCheck{Final: true}); !hasRule(err, "leaked-reservation") {
		t.Fatalf("want leaked-reservation, got %v", err)
	}
}

// TestCheckIntake: a submitted but unflushed admission is residue at a
// quiesce point; the flush clears it.
func TestCheckIntake(t *testing.T) {
	c, err := sim.NewCluster(sim.ClusterConfig{Plan: sim.DefaultParallelPlan(),
		Intake: core.IntakeConfig{Enabled: true, MaxBatch: 8}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := invariant.CheckIntake(c.Broker); err != nil {
		t.Fatalf("idle intake flagged: %v", err)
	}
	now := c.Clock.Now()
	if _, err := c.Broker.Submit(core.Request{Service: "simulation", Client: "queued",
		Class: sla.ClassGuaranteed, Spec: sla.NewSpec(sla.Exact(resource.CPU, 2)),
		Start: now, End: now.Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckIntake(c.Broker); !hasRule(err, "intake-undrained") {
		t.Fatalf("want intake-undrained, got %v", err)
	}
	c.Broker.FlushIntake()
	if err := invariant.CheckIntake(c.Broker); err != nil {
		t.Fatalf("flushed intake flagged: %v", err)
	}
}

func TestCheckShadowInert(t *testing.T) {
	if err := invariant.CheckShadowInert("abc", "abc"); err != nil {
		t.Fatalf("equal digests flagged: %v", err)
	}
	if err := invariant.CheckShadowInert("abc", "abd"); !hasRule(err, "shadow-mutated-state") {
		t.Fatalf("want shadow-mutated-state, got %v", err)
	}
}
