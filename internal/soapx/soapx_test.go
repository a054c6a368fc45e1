package soapx

import (
	"context"
	"encoding/xml"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

type pingReq struct {
	XMLName xml.Name `xml:"ping"`
	Message string   `xml:"message"`
}

type pingResp struct {
	XMLName xml.Name `xml:"pingResponse"`
	Echo    string   `xml:"echo"`
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	data, err := Marshal(&pingReq{Message: "hello <grid>"})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	s := string(data)
	if !strings.Contains(s, "<soap:Envelope") || !strings.Contains(s, "<soap:Body>") {
		t.Fatalf("envelope missing: %s", s)
	}
	var req pingReq
	if err := Unmarshal(data, &req); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if req.Message != "hello <grid>" {
		t.Errorf("Message = %q (escaping broken?)", req.Message)
	}
}

func TestUnmarshalFault(t *testing.T) {
	data, err := Marshal(&Fault{Code: "soap:Server", String: "boom", Detail: "d"})
	if err != nil {
		t.Fatal(err)
	}
	var resp pingResp
	err = Unmarshal(data, &resp)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.String != "boom" || !strings.Contains(f.Error(), "boom") {
		t.Errorf("fault = %+v", f)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if err := Unmarshal([]byte("not xml"), &pingReq{}); err == nil {
		t.Error("bad envelope accepted")
	}
	empty := []byte(`<soap:Envelope xmlns:soap="` + EnvelopeNS + `"><soap:Body></soap:Body></soap:Envelope>`)
	if err := Unmarshal(empty, &pingReq{}); err == nil {
		t.Error("empty body accepted")
	}
}

func newEchoServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := NewMux()
	mux.Handle("ping", func(body []byte) (any, error) {
		var req pingReq
		if err := xml.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		if req.Message == "fail" {
			return nil, errors.New("handler exploded")
		}
		return &pingResp{Echo: req.Message}, nil
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestClientServerRoundTrip(t *testing.T) {
	srv := newEchoServer(t)
	c := Client{Endpoint: srv.URL}
	var resp pingResp
	if err := c.Call(&pingReq{Message: "qos"}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Echo != "qos" {
		t.Errorf("Echo = %q", resp.Echo)
	}
}

func TestServerFaultPropagatesToClient(t *testing.T) {
	srv := newEchoServer(t)
	c := Client{Endpoint: srv.URL}
	var resp pingResp
	err := c.Call(&pingReq{Message: "fail"}, &resp)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if !strings.Contains(f.String, "handler exploded") {
		t.Errorf("fault = %+v", f)
	}
}

func TestServerUnknownElement(t *testing.T) {
	srv := newEchoServer(t)
	c := Client{Endpoint: srv.URL}
	type nope struct {
		XMLName xml.Name `xml:"nope"`
	}
	var resp pingResp
	err := c.Call(&nope{}, &resp)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if !strings.Contains(f.String, "no handler") {
		t.Errorf("fault = %+v", f)
	}
}

func TestServerRejectsGet(t *testing.T) {
	srv := newEchoServer(t)
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	srv := newEchoServer(t)
	resp, err := http.Post(srv.URL, ContentType, strings.NewReader("<not-soap/>"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage status = %d", resp.StatusCode)
	}
}

func TestClientBadEndpoint(t *testing.T) {
	c := Client{Endpoint: "http://127.0.0.1:1/nope"}
	var resp pingResp
	if err := c.Call(&pingReq{Message: "x"}, &resp); err == nil {
		t.Error("Call to dead endpoint succeeded")
	}
}

func TestHandleHTTPExactPath(t *testing.T) {
	mux := NewMux()
	mux.Handle("ping", func(body []byte) (any, error) {
		var req pingReq
		if err := xml.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return &pingResp{Echo: req.Message}, nil
	})
	mux.HandleHTTP("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("metric_total 1\n"))
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Plain GET on the mounted path bypasses SOAP dispatch.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "metric_total 1") {
		t.Fatalf("GET /metrics = %d %q", resp.StatusCode, body)
	}

	// SOAP dispatch on other paths is untouched.
	c := &Client{Endpoint: srv.URL + "/"}
	var pr pingResp
	if err := c.Call(&pingReq{Message: "hi"}, &pr); err != nil {
		t.Fatalf("SOAP call after HandleHTTP: %v", err)
	}
	if pr.Echo != "hi" {
		t.Errorf("echo = %q", pr.Echo)
	}

	// Unmounted paths still fault on GET.
	resp2, err := http.Get(srv.URL + "/other")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp2)
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /other = %d, want 405", resp2.StatusCode)
	}
}

func TestHandleHTTPSubtree(t *testing.T) {
	mux := NewMux()
	mux.HandleHTTP("/debug/pprof/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("pprof:" + r.URL.Path))
	}))
	mux.HandleHTTP("/debug/pprof/cmdline", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("cmdline"))
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, tc := range []struct{ path, want string }{
		{"/debug/pprof/", "pprof:/debug/pprof/"},
		{"/debug/pprof/heap", "pprof:/debug/pprof/heap"},
		{"/debug/pprof/cmdline", "cmdline"}, // exact beats subtree
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); body != tc.want {
			t.Errorf("GET %s = %q, want %q", tc.path, body, tc.want)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestHandleHTTPMethodsOnExactMount: an exact mount owns EVERY method on
// its path — HEAD and POST route to the mounted handler, never to SOAP
// dispatch (a POST body on a mounted path must not be parsed as an
// envelope).
func TestHandleHTTPMethodsOnExactMount(t *testing.T) {
	mux := NewMux()
	mux.Handle("ping", func(body []byte) (any, error) {
		return &pingResp{Echo: "soap"}, nil
	})
	mux.HandleHTTP("/hook", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Handler", "hook")
		if r.Method != http.MethodHead {
			w.Write([]byte("hook:" + r.Method))
		}
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// HEAD reaches the handler (a bare Mux would answer 405 SOAP-fault).
	resp, err := http.Head(srv.URL + "/hook")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Handler") != "hook" {
		t.Errorf("HEAD /hook = %d handler=%q, want 200 hook", resp.StatusCode, resp.Header.Get("X-Handler"))
	}

	// POST with a valid SOAP envelope still goes to the HTTP handler:
	// the mount bypasses envelope parsing entirely.
	envelope, err := Marshal(&pingReq{Message: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(srv.URL+"/hook", "text/xml", strings.NewReader(string(envelope)))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp2); body != "hook:POST" {
		t.Errorf("POST /hook = %q, want %q", body, "hook:POST")
	}

	// SOAP POSTs on unmounted paths are still dispatched.
	c := &Client{Endpoint: srv.URL + "/"}
	var pr pingResp
	if err := c.Call(&pingReq{Message: "hi"}, &pr); err != nil || pr.Echo != "soap" {
		t.Errorf("SOAP beside exact mount: echo=%q err=%v", pr.Echo, err)
	}
}

// TestHandleHTTPSubtreeShadowsSOAP: a subtree mount captures SOAP-shaped
// POSTs under its prefix — mounting a subtree carves that URL space out
// of SOAP dispatch, which is exactly how the JSON API coexists with the
// SOAP endpoint on one listener.
func TestHandleHTTPSubtreeShadowsSOAP(t *testing.T) {
	mux := NewMux()
	mux.Handle("ping", func(body []byte) (any, error) {
		return &pingResp{Echo: "soap"}, nil
	})
	mux.HandleHTTP("/api/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("api:" + r.URL.Path))
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// A SOAP envelope POSTed under the subtree lands in the HTTP
	// handler, not the ping dispatcher.
	envelope, err := Marshal(&pingReq{Message: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/ping", "text/xml", strings.NewReader(string(envelope)))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); body != "api:/api/ping" {
		t.Errorf("POST under subtree = %q, want %q", body, "api:/api/ping")
	}

	// The subtree root itself is captured too.
	resp2, err := http.Get(srv.URL + "/api/")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp2); body != "api:/api/" {
		t.Errorf("GET subtree root = %q, want %q", body, "api:/api/")
	}

	// Outside the subtree, SOAP dispatch is untouched.
	c := &Client{Endpoint: srv.URL + "/"}
	var pr pingResp
	if err := c.Call(&pingReq{Message: "hi"}, &pr); err != nil || pr.Echo != "soap" {
		t.Errorf("SOAP beside subtree mount: echo=%q err=%v", pr.Echo, err)
	}
}

// TestServeStopsOnCancel: Serve answers until its context is canceled,
// then returns nil once the listener is closed.
func TestServeStopsOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, ln, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "up")
		}))
	}()
	url := "http://" + ln.Addr().String() + "/"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v after cancel, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if _, err := http.Get(url); err == nil {
		t.Error("listener still answers after Serve returned")
	}
}
