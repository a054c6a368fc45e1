package cluster

import (
	"errors"
	"net/http/httptest"
	"testing"

	"gqosm/internal/core"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// TestFrontRejectAndInvokeRouteToOwner: Reject and Invoke land on the
// broker that owns the offer; a rejected offer is forgotten by the
// front, so later calls for it are unknown sessions.
func TestFrontRejectAndInvokeRouteToOwner(t *testing.T) {
	front, err := New(Config{}, NewSlot(member(t, "node-a", 20)), NewSlot(member(t, "node-b", 20)))
	if err != nil {
		t.Fatal(err)
	}

	declined, err := front.RequestService(clusterRequest("decliner", 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Reject(declined.SLA.ID); err != nil {
		t.Fatalf("Reject: %v", err)
	}
	if doc, err := frontBroker(t, front, declined.Domain).Session(declined.SLA.ID); err != nil || !doc.State.Terminal() {
		t.Fatalf("rejected offer on its owner = %+v, %v; want terminal", doc, err)
	}
	if _, ok := front.Owner(declined.SLA.ID); ok {
		t.Error("front still tracks a rejected offer")
	}
	if _, err := front.Invoke(declined.SLA.ID); !errors.Is(err, core.ErrUnknownSession) {
		t.Errorf("Invoke of a rejected offer: err = %v, want ErrUnknownSession", err)
	}

	offer, err := front.RequestService(clusterRequest("runner", 4))
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := front.Accept(id); err != nil {
		t.Fatal(err)
	}
	job, err := front.Invoke(id)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if job.ID == "" {
		t.Error("Invoke returned no job")
	}
	if doc, err := frontBroker(t, front, offer.Domain).Session(id); err != nil || doc.State != sla.StateActive {
		t.Fatalf("invoked session on its owner = %+v, %v; want active", doc, err)
	}
}

// TestFrontLoadsAndRebalance: Loads reports every member (a recovering
// one as recovering), and Rebalance moves healthy sessions from the
// most- to the least-loaded broker, up to its limit, updating ownership.
func TestFrontLoadsAndRebalance(t *testing.T) {
	a := member(t, "node-a", 20)
	b := member(t, "node-b", 20)
	slotA, slotB := NewSlot(a), NewSlot(b)
	front, err := New(Config{}, slotA, slotB)
	if err != nil {
		t.Fatal(err)
	}
	// Sessions admitted on node-a directly predate the front.
	var ids []sla.ID
	for _, client := range []string{"c1", "c2", "c3"} {
		o, err := a.RequestService(clusterRequest(client, 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Accept(o.SLA.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, o.SLA.ID)
	}

	loads := front.Loads()
	if len(loads) != 2 || loads[0].Domain != "node-a" || loads[0].Sessions != 3 || loads[1].Sessions != 0 {
		t.Fatalf("Loads = %+v, want node-a with 3 sessions and an idle node-b", loads)
	}

	if moved := front.Rebalance(2); moved != 2 {
		t.Fatalf("Rebalance(2) moved %d, want 2", moved)
	}
	for _, id := range ids[:2] {
		if owner, _ := front.Owner(id); owner != "node-b" {
			t.Errorf("%s owner = %q after rebalance, want node-b", id, owner)
		}
		if doc, err := b.Session(id); err != nil || doc.State.Terminal() {
			t.Errorf("%s on node-b = %+v, %v", id, doc, err)
		}
	}
	if doc, err := a.Session(ids[2]); err != nil || doc.State.Terminal() {
		t.Errorf("session past the limit moved: %+v, %v", doc, err)
	}

	slotB.MarkRecovering(true)
	if loads := front.Loads(); !loads[1].Recovering {
		t.Errorf("recovering member reported %+v", loads[1])
	}
	if moved := front.Rebalance(2); moved != 0 {
		t.Errorf("Rebalance with one live member moved %d, want 0", moved)
	}
}

// TestRemoteSlotOverSOAP: a slot built with NewRemoteSlot reaches its
// broker over the SOAP wire, both for admission and for the load
// report placement reads.
func TestRemoteSlotOverSOAP(t *testing.T) {
	remote := member(t, "node-r", 20)
	mux := soapx.NewMux()
	remote.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	slot := NewRemoteSlot("node-r", core.NewClient(srv.URL))
	if slot.Broker() != nil {
		t.Fatal("remote slot claims an in-process broker")
	}
	front, err := New(Config{}, slot)
	if err != nil {
		t.Fatal(err)
	}
	offer, err := front.RequestService(clusterRequest("far", 3))
	if err != nil {
		t.Fatalf("RequestService over SOAP: %v", err)
	}
	if offer.Domain != "node-r" {
		t.Errorf("offer domain = %q, want node-r", offer.Domain)
	}
	if _, err := remote.Session(offer.SLA.ID); err != nil {
		t.Errorf("remote broker has no session %s: %v", offer.SLA.ID, err)
	}
	loads := front.Loads()
	if len(loads) != 1 || loads[0].Domain != "node-r" || loads[0].Sessions != 1 || loads[0].Recovering {
		t.Fatalf("Loads over SOAP = %+v, want node-r with 1 session", loads)
	}
}
