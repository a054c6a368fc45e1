package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/dsrt"
	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/httpapi"
	"gqosm/internal/mds"
	"gqosm/internal/nrm"
	"gqosm/internal/obs"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// epoch is the manual clock's start for every workload.
var epoch = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

// ledgerRetain bounds the ledger's entry list so long runs keep a flat
// heap; aggregates stay exact (see pricing.Ledger.SetRetention).
const ledgerRetain = 20000

// stackConfig sizes one broker deployment. It mirrors gqosm.NewStack,
// but is assembled here so the traced run can slide forwarding
// wrappers under the broker's interfaces.
type stackConfig struct {
	Plan   core.CapacityPlan
	Shards int
	// Network adds the three-site topology (site-b and site-c linked to
	// site-a) and a bandwidth-broker NRM behind GARA.
	Network bool
	// DSRT, when positive, runs launched jobs under a DSRT scheduler with
	// that many processors and hands the broker an RM-level adapter.
	DSRT int
	// WALDir turns the write-ahead log on.
	WALDir string
	Intake bool
	// Tracer, when non-nil, wraps the finder, the GARA managers, the SLA
	// repository and the RM adapter; nil assembles the plain program.
	Tracer *tracer
}

// stack is an assembled deployment on a manual clock.
type stack struct {
	cfg    core.Config
	clock  *clockx.Manual
	broker *core.Broker
	pool   *resource.Pool
	gara   *gara.System
	reg    *registry.Registry
	gram   *gram.Manager
	nrm    *nrm.Manager
	topo   *nrm.Topology
	obs    *obs.Registry
	tr     *tracer

	srv *http.Server
	url string
}

func newStack(c stackConfig) (*stack, error) {
	clock := clockx.NewManual(epoch)
	total := c.Plan.Total()
	pool := resource.NewPool("machine", total)
	tr := c.Tracer

	g := gara.NewSystem()
	g.RegisterManager(tr.manager(gara.NewComputeManager(pool)))
	var (
		netMgr *nrm.Manager
		topo   *nrm.Topology
	)
	if c.Network {
		topo = nrm.NewTopology()
		for _, d := range []struct{ name, cidr string }{
			{"site-a", "192.200.168.0/24"},
			{"site-b", "135.200.50.0/24"},
			{"site-c", "10.10.0.0/16"},
		} {
			if err := topo.AddDomain(d.name, d.cidr); err != nil {
				return nil, err
			}
		}
		if err := topo.AddLink("site-a", "site-b", 1000); err != nil {
			return nil, err
		}
		if err := topo.AddLink("site-a", "site-c", 1000); err != nil {
			return nil, err
		}
		netMgr = nrm.NewManager("site-a", topo)
		g.RegisterManager(tr.manager(gara.NewNetworkManager(netMgr)))
	}

	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{
		Name:     "simulation",
		Provider: "site-a",
		Properties: []registry.Property{
			registry.NumProp("cpu-nodes", total.CPU),
			registry.NumProp("memory-mb", total.MemoryMB),
			registry.NumProp("disk-gb", total.DiskGB),
			registry.NumProp("bandwidth-mbps", 1000),
		},
	}); err != nil {
		return nil, fmt.Errorf("register service: %w", err)
	}
	dir := mds.NewDirectory()
	if err := dir.Register("machine", func() mds.Attributes {
		now := clock.Now()
		return mds.Attributes{
			"cpu-total": fmt.Sprintf("%g", pool.Total().CPU),
			"cpu-free":  fmt.Sprintf("%g", pool.Available(now).CPU),
		}
	}); err != nil {
		return nil, err
	}
	gramM := gram.NewManager(clock)

	var rm core.RMAdapter
	var sched *dsrt.Scheduler
	if c.DSRT > 0 {
		sched = dsrt.New(dsrt.Config{Processors: c.DSRT}, nil)
		g.RegisterManager(tr.manager(gara.NewDSRTManager(sched)))
		adapter := core.NewDSRTAdapter(sched)
		attachJobs(gramM, sched, adapter, c.DSRT)
		rm = tr.rmAdapter(adapter)
	}

	cfg := core.Config{
		Domain:        "site-a",
		Clock:         clock,
		Plan:          c.Plan,
		Shards:        c.Shards,
		Registry:      tr.finder(reg),
		GARA:          g,
		GRAM:          gramM,
		NRM:           netMgr,
		MDS:           dir,
		RM:            rm,
		Repo:          tr.repo(sla.NewMemoryRepository()),
		ConfirmWindow: time.Hour,
		Obs:           obs.NewRegistry(),
		Durability:    core.DurabilityConfig{Dir: c.WALDir},
		Intake:        core.IntakeConfig{Enabled: c.Intake},
	}
	b, err := core.NewBroker(cfg)
	if err != nil {
		gramM.Close()
		return nil, err
	}
	b.Ledger().SetRetention(ledgerRetain)
	metrics := b.Obs()
	g.Instrument(metrics)
	gramM.Instrument(metrics)
	if netMgr != nil {
		netMgr.Instrument(metrics)
	}
	if sched != nil {
		sched.Instrument(metrics)
	}
	return &stack{cfg: cfg, clock: clock, broker: b, pool: pool, gara: g, reg: reg,
		gram: gramM, nrm: netMgr, topo: topo, obs: metrics, tr: tr}, nil
}

// attachJobs gives every launched service process a DSRT contract linked
// to its session, as the gqosm facade does, so RM-level rectification
// has processes to boost.
func attachJobs(gramM *gram.Manager, sched *dsrt.Scheduler, adapter *core.DSRTAdapter, processors int) {
	var mu sync.Mutex
	contracts := make(map[gram.JobID]dsrt.PID)
	gramM.Subscribe(func(j gram.Job) {
		node, err := rsl.ParseCached(j.Spec)
		if err != nil {
			return
		}
		id := sla.ID(node.Str("label", ""))
		if id == "" {
			return
		}
		switch {
		case j.State == gram.StateActive:
			pid, err := sched.Register(dsrt.Contract{Class: dsrt.PeriodicVariable, Share: 0.5 / float64(processors)})
			if err != nil {
				return
			}
			mu.Lock()
			contracts[j.ID] = pid
			mu.Unlock()
			adapter.Attach(id, pid)
		case j.State.Terminal():
			mu.Lock()
			pid, ok := contracts[j.ID]
			delete(contracts, j.ID)
			mu.Unlock()
			if ok {
				_ = sched.Unregister(pid)
				adapter.Detach(id)
			}
		}
	})
}

// serve mounts the broker's endpoints the way gqosm's Stack.Mount does
// (SOAP, registry, JSON API, /metrics) and serves them on a loopback
// listener. In a traced run the JSON API handler is wrapped, and so is
// the whole mux when muxSpan names a span, to time the server side of
// each call.
func (s *stack) serve(muxSpan string) error {
	mux := soapx.NewMux()
	s.broker.Mount(mux)
	s.reg.Mount(mux)
	mux.HandleHTTP(httpapi.Prefix, s.tr.handler("httpapi.server", httpapi.NewServer(s.broker)))
	mux.HandleHTTP("/metrics", s.obs.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.srv = &http.Server{Handler: s.tr.handler(muxSpan, mux)}
	s.url = "http://" + ln.Addr().String()
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

// httpClient returns a client holding at most one connection to the
// stack's listener; in a traced run its transport tags each request
// with the caller's span.
func (s *stack) httpClient() *http.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: s.tr.roundTripper(tr)}
}

func (s *stack) close() {
	if s.srv != nil {
		_ = s.srv.Close()
	}
	s.broker.Close()
	s.gram.Close()
}
