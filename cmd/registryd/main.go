// Command registryd runs a standalone UDDIe-style registry server, for
// deployments where discovery is operated separately from the broker (the
// paper's Fig. 5 shows the UDDIe as its own servlet beside the AQoS).
//
// Usage:
//
//	registryd -listen :8081 -seed services.xml
//
// The optional seed file holds a <serviceList> of <Service> entries to
// pre-register. SIGINT or SIGTERM stops the server after in-flight
// requests finish.
package main

import (
	"context"
	"encoding/xml"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"gqosm/internal/clockx"
	"gqosm/internal/faultx"
	"gqosm/internal/registry"
	"gqosm/internal/soapx"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "registryd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		listen    = flag.String("listen", ":8081", "HTTP listen address")
		seed      = flag.String("seed", "", "optional XML file of services to pre-register")
		faultRate = flag.Float64("fault-rate", 0, "chaos-test clients: probability of an injected SOAP fault per request (0 disables)")
		faultSeed = flag.Int64("fault-seed", 1, "fault injector PRNG seed (with -fault-rate)")
	)
	flag.Parse()

	reg := registry.New(clockx.Real())
	if *seed != "" {
		n, err := seedFromFile(reg, *seed)
		if err != nil {
			return err
		}
		log.Printf("registryd: seeded %d service(s) from %s", n, *seed)
	}

	mux := soapx.NewMux()
	if *faultRate > 0 {
		inj := faultx.New(*faultSeed, clockx.Real())
		inj.SetDefault(faultx.Plan{Rate: *faultRate})
		mux.Faults = inj
		log.Printf("registryd: CHAOS MODE: injecting SOAP faults at rate %g (seed %d)", *faultRate, *faultSeed)
	}
	reg.Mount(mux)
	httpMux := http.NewServeMux()
	httpMux.Handle("/", mux)
	httpMux.HandleFunc("/services", func(w http.ResponseWriter, _ *http.Request) {
		all, err := reg.Find(registry.Query{})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for _, s := range all {
			fmt.Fprintf(w, "%s  %s (provider %s, %d properties)\n", s.Key, s.Name, s.Provider, len(s.Properties))
		}
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	log.Printf("registryd: serving on %s", ln.Addr())
	return soapx.Serve(ctx, ln, httpMux)
}

type seedFile struct {
	XMLName  xml.Name              `xml:"serviceList"`
	Services []registry.ServiceXML `xml:"Service"`
}

func seedFromFile(reg *registry.Registry, path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var sf seedFile
	if err := xml.Unmarshal(data, &sf); err != nil {
		return 0, fmt.Errorf("parse %s: %w", path, err)
	}
	n := 0
	for _, sx := range sf.Services {
		svc, err := registry.ServiceFromXML(sx)
		if err != nil {
			return n, err
		}
		if _, err := reg.Register(svc); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
