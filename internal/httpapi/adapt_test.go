package httpapi_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"gqosm/internal/core"
	"gqosm/internal/httpapi"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// TestWireRenegotiate: a renegotiation sent over the JSON transport
// changes the grant, and the new grant is what /api/v1/session reports.
func TestWireRenegotiate(t *testing.T) {
	_, client := apiFixture(t, false)
	offer, err := client.RequestService(wireRequest("reneg"))
	if err != nil {
		t.Fatal(err)
	}
	id := sla.ID(offer.SLAID)
	if _, err := client.Act(id, "accept", ""); err != nil {
		t.Fatal(err)
	}
	detail, err := client.Renegotiate(id, sla.NewSpec(sla.Exact(resource.CPU, 5)))
	if err != nil {
		t.Fatalf("renegotiate: %v", err)
	}
	if !strings.Contains(detail, "reallocated") {
		t.Errorf("renegotiate detail = %q", detail)
	}
	sess, err := client.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Allocated.Capacity(); !got.Equal(resource.Nodes(5)) {
		t.Errorf("session grant after renegotiate = %v, want 5 CPU", got)
	}
	if sess.Price <= offer.Price {
		t.Errorf("upgrade did not raise the price: %v -> %v", offer.Price, sess.Price)
	}
}

// TestWireBestEffort grants best-effort capacity over the wire, then
// releases it.
func TestWireBestEffort(t *testing.T) {
	c, client := apiFixture(t, false)
	want := resource.Capacity{CPU: 2, MemoryMB: 256}
	if err := client.BestEffort("be-wire", want, false); err != nil {
		t.Fatalf("best-effort request: %v", err)
	}
	if got, ok := c.Broker.Allocator().BestEffortAllocation("be-wire"); !ok || !got.Equal(want) {
		t.Fatalf("best-effort grant = %v (held %v), want %v", got, ok, want)
	}
	if err := client.BestEffort("be-wire", resource.Capacity{}, true); err != nil {
		t.Fatalf("best-effort release: %v", err)
	}
	if got, ok := c.Broker.Allocator().BestEffortAllocation("be-wire"); ok {
		t.Fatalf("grant %v survives the release", got)
	}
}

// TestWireAdaptErrors pins the error taxonomy of the renegotiate and
// best-effort endpoints: malformed bodies are 400 bad_request, an
// unknown session is 404 unknown_session.
func TestWireAdaptErrors(t *testing.T) {
	_, client := apiFixture(t, false)
	base := client.Endpoint + httpapi.Prefix
	spec := `{"params":{"cpu":{"exact":2}}}`
	for _, tc := range []struct {
		path, body string
		status     int
		code       string
	}{
		{"renegotiate", `{"spec":` + spec + `}`, http.StatusBadRequest, "bad_request"},
		{"renegotiate", `{"id":"site-a-sla-0001"}`, http.StatusBadRequest, "bad_request"},
		{"renegotiate", `{not json`, http.StatusBadRequest, "bad_request"},
		{"renegotiate", `{"id":"no-such-session","spec":` + spec + `}`, http.StatusNotFound, "unknown_session"},
		{"best-effort", `{"cpu":1}`, http.StatusBadRequest, "bad_request"},
		{"best-effort", `{not json`, http.StatusBadRequest, "bad_request"},
	} {
		resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e httpapi.ErrorJSON
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.status || e.Error.Code != tc.code {
			t.Errorf("POST %s %s = %d %q (%v), want %d %q",
				tc.path, tc.body, resp.StatusCode, e.Error.Code, err, tc.status, tc.code)
		}
	}
	// The typed client maps the 404 back onto the broker's sentinel.
	if _, err := client.Renegotiate("no-such-session", sla.NewSpec(sla.Exact(resource.CPU, 2))); !errors.Is(err, core.ErrUnknownSession) {
		t.Errorf("renegotiate unknown: %v, want ErrUnknownSession", err)
	}
}
