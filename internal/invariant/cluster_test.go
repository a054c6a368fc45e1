package invariant_test

import (
	"strings"
	"testing"

	"gqosm/internal/invariant"
	"gqosm/internal/resource"
	"gqosm/internal/sim"
)

// domainCluster is newCluster with a named administrative domain, so
// SLA IDs of brokers in different domains never collide.
func domainCluster(t *testing.T, domain string) *sim.Cluster {
	t.Helper()
	c, err := sim.NewCluster(sim.ClusterConfig{Plan: sim.DefaultParallelPlan(), Domain: domain})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestCheckClusterHealthy(t *testing.T) {
	a, b := domainCluster(t, "site-a"), domainCluster(t, "site-b")
	establish(t, a, "alice", 6)
	id := establish(t, b, "bob", 6)
	if err := invariant.CheckCluster(a.Broker, b.Broker); err != nil {
		t.Fatalf("healthy cluster flagged: %v", err)
	}
	if err := b.Broker.Terminate(id, "done"); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckCluster(a.Broker, b.Broker); err != nil {
		t.Fatalf("after teardown: %v", err)
	}
}

// TestCheckClusterPrefixesBrokerRules: a single-broker violation is
// reported once, naming the broker it was found on.
func TestCheckClusterPrefixesBrokerRules(t *testing.T) {
	a, b := domainCluster(t, "site-a"), domainCluster(t, "site-b")
	if _, err := b.Broker.Allocator().AllocateGuaranteed("ghost", resource.Nodes(2), resource.Nodes(2)); err != nil {
		t.Fatal(err)
	}
	err := invariant.CheckCluster(a.Broker, b.Broker)
	if got := rules(err); len(got) != 1 || got[0] != "orphan-grant" {
		t.Fatalf("rules = %v, want [orphan-grant]", got)
	}
	if !strings.Contains(err.Error(), `broker "site-b"`) {
		t.Fatalf("violation does not name its broker: %v", err)
	}
}

// TestCheckClusterDoubleOwner: two brokers sharing a domain mint the
// same SLA ID, so the same live session is owned — and its capacity
// granted — twice: the torn hand-off shape.
func TestCheckClusterDoubleOwner(t *testing.T) {
	a, b := domainCluster(t, "site-a"), domainCluster(t, "site-a")
	if ida, idb := establish(t, a, "alice", 4), establish(t, b, "bob", 4); ida != idb {
		t.Fatalf("same-domain brokers minted %s and %s", ida, idb)
	}
	err := invariant.CheckCluster(a.Broker, b.Broker)
	for _, rule := range []string{"cluster-double-owner", "cluster-double-grant"} {
		if !hasRule(err, rule) {
			t.Errorf("want %s, got %v", rule, err)
		}
	}
	if hasRule(err, "cluster-overcommit") {
		t.Errorf("two small grants flagged as overcommit: %v", err)
	}
}
