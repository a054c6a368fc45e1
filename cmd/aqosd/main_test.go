package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gqosm"
	"gqosm/internal/core"
	"gqosm/internal/sla"
)

// startDaemon serves the daemon's full HTTP surface (SOAP + /metrics +
// pprof + inspection pages) over httptest, exactly as run() would mount
// it on a real listener.
func startDaemon(t *testing.T) (*gqosm.Stack, string) {
	t.Helper()
	stack, err := gqosm.NewStack(gqosm.StackConfig{
		Domain: "site-a",
		Plan: gqosm.CapacityPlan{
			Guaranteed: gqosm.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120},
			Adaptive:   gqosm.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40},
			BestEffort: gqosm.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40},
		},
		ConfirmWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	srv := httptest.NewServer(newHandler(stack, nil))
	t.Cleanup(srv.Close)
	return stack, srv.URL
}

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// metricValue extracts the sample value of the exposition line that
// starts exactly with series (name plus rendered labels), or -1.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v
	}
	return -1
}

// TestMetricsEndToEnd drives one full SLA lifecycle over SOAP and
// asserts the /metrics exposition reflects it: the admission histogram
// observed the request, the lifecycle counters advanced by exactly the
// performed transitions, and the partition utilization gauges moved.
func TestMetricsEndToEnd(t *testing.T) {
	_, url := startDaemon(t)
	client := core.NewClient(url + "/")

	before := scrape(t, url+"/metrics")
	if !strings.Contains(before, "# TYPE gqosm_broker_admission_seconds histogram") {
		t.Fatalf("exposition lacks admission histogram type line:\n%s", before)
	}
	if got := metricValue(t, before, `gqosm_partition_utilization{pool="guaranteed",dim="cpu"}`); got != 0 {
		t.Fatalf("guaranteed cpu utilization before = %v, want 0", got)
	}

	now := time.Now()
	offer, err := client.RequestService(core.Request{
		Service: "simulation",
		Client:  "e2e",
		Class:   sla.ClassGuaranteed,
		Spec:    gqosm.NewSpec(gqosm.Exact(gqosm.CPU, 5)),
		Start:   now,
		End:     now.Add(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := sla.ID(offer.SLA.SLAID)
	for _, action := range []string{"accept", "invoke"} {
		if _, err := client.Act(id, action, ""); err != nil {
			t.Fatalf("%s: %v", action, err)
		}
	}

	mid := scrape(t, url+"/metrics")
	if got := metricValue(t, mid, "gqosm_broker_admission_seconds_count"); got < 1 {
		t.Errorf("admission histogram count = %v, want >= 1", got)
	}
	for _, series := range []string{
		`gqosm_broker_lifecycle_total{event="request"}`,
		`gqosm_broker_lifecycle_total{event="accept"}`,
	} {
		if got := metricValue(t, mid, series); got != 1 {
			t.Errorf("%s = %v, want 1", series, got)
		}
	}
	util := metricValue(t, mid, `gqosm_partition_utilization{pool="guaranteed",dim="cpu"}`)
	if want := 5.0 / 15.0; util < want-0.01 || util > want+0.01 {
		t.Errorf("guaranteed cpu utilization = %v, want ~%v", util, want)
	}
	if got := metricValue(t, mid, `gqosm_broker_sessions{state="active"}`); got != 1 {
		t.Errorf("active sessions gauge = %v, want 1", got)
	}

	if _, err := client.Act(id, "terminate", "e2e done"); err != nil {
		t.Fatal(err)
	}
	after := scrape(t, url+"/metrics")
	if got := metricValue(t, after, `gqosm_broker_lifecycle_total{event="terminate"}`); got != 1 {
		t.Errorf("terminate counter = %v, want 1", got)
	}
	if got := metricValue(t, after, `gqosm_partition_utilization{pool="guaranteed",dim="cpu"}`); got != 0 {
		t.Errorf("guaranteed cpu utilization after teardown = %v, want 0", got)
	}
	if got := metricValue(t, after, "gqosm_broker_teardown_seconds_count"); got < 1 {
		t.Errorf("teardown histogram count = %v, want >= 1", got)
	}
}

// TestProfilerMounted confirms the pprof family answers next to the SOAP
// endpoints.
func TestProfilerMounted(t *testing.T) {
	_, url := startDaemon(t)
	if body := scrape(t, url+"/debug/pprof/cmdline"); body == "" {
		t.Error("empty pprof cmdline response")
	}
	if body := scrape(t, url+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index lacks goroutine profile: %q", body)
	}
}

// TestServeShutdownClosesStack cancels the serve context, as SIGTERM
// does, and checks that serve returns only after the stack is closed:
// the broker refuses new work and its sealed WAL recovers the session
// admitted before shutdown.
func TestServeShutdownClosesStack(t *testing.T) {
	dir := t.TempDir()
	cfg := gqosm.StackConfig{
		Domain:        "site-a",
		Plan:          gqosm.CapacityPlan{Guaranteed: gqosm.Nodes(10), BestEffort: gqosm.Nodes(2)},
		ConfirmWindow: time.Hour,
		WALDir:        dir,
		Intake:        gqosm.IntakeConfig{Enabled: true},
	}
	stack, err := gqosm.NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, stack, newHandler(stack, nil)) }()

	now := time.Now()
	req := core.Request{
		Service: "simulation", Client: "shutdown", Class: sla.ClassGuaranteed,
		Spec:  gqosm.NewSpec(gqosm.Exact(gqosm.CPU, 2)),
		Start: now, End: now.Add(time.Hour),
	}
	if _, err := core.NewClient("http://" + ln.Addr().String() + "/").RequestService(req); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not return after the context was canceled")
	}
	if _, err := stack.Broker.RequestService(req); !errors.Is(err, core.ErrClosed) {
		t.Errorf("request after shutdown: err = %v, want ErrClosed", err)
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/status"); err == nil {
		t.Error("listener still answers after shutdown")
	}

	again, err := gqosm.NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Recovery == nil || again.Recovery.Sessions != 1 {
		t.Errorf("recovery after shutdown = %+v, want the 1 admitted session", again.Recovery)
	}
}
