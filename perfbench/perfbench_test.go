package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/dsrt"
	"gqosm/internal/gara"
	"gqosm/internal/httpapi"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
)

// runTiny runs one workload at tiny size and returns its final line.
func runTiny(t *testing.T, workload string, trace int) map[string]any {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.4", "--tiny",
		"--trace", strconv.Itoa(trace), "--work-dir", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s trace %d: exit %d: %s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	return last
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for trace, want := range [][]unit{e2eUnits, layerUnits} {
			last := runTiny(t, w.name, trace)
			if len(last) != 4 || last["correct"] != true {
				t.Fatalf("%s trace %d: want exactly correct/attempted/failed/metrics with correct=true, got %v",
					w.name, trace, last)
			}
			if a, _ := last["attempted"].(float64); a < 1 {
				t.Errorf("%s trace %d: attempted = %v", w.name, trace, last["attempted"])
			}
			metrics, _ := last["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.name].(map[string]any)
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", w.name, trace, m.name)
					continue
				}
				if got["unit"] != m.unit {
					t.Errorf("%s trace %d: %s unit %v, want %s", w.name, trace, m.name, got["unit"], m.unit)
				}
				if _, ok := got["value"].(float64); !ok {
					t.Errorf("%s trace %d: %s value %v is not a number", w.name, trace, m.name, got["value"])
				}
			}
		}
	}
}

func TestSeedFixesOpStream(t *testing.T) {
	for _, w := range workloads {
		a, err := opStreamDigest(w.name, 7, 200)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := opStreamDigest(w.name, 7, 200)
		c, _ := opStreamDigest(w.name, 8, 200)
		if a != b {
			t.Errorf("%s: seed 7 gave two op streams: %s vs %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream %s", w.name, a)
		}
	}
}

// plainFinder has no Generation method: its results are uncacheable.
type plainFinder struct{}

func (plainFinder) Find(registry.Query) ([]*registry.Service, error) { return nil, nil }

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	type gen interface{ Generation() uint64 }
	type epocher interface{ Epoch() uint64 }

	reg := registry.New(clockx.NewManual(epoch))
	f := tr.finder(reg)
	if _, ok := f.(gen); !ok {
		t.Error("finder wrapper hides Generation: the discovery cache would turn off")
	}
	if _, ok := f.(epocher); !ok {
		t.Error("finder wrapper hides Epoch")
	}
	if _, ok := tr.finder(plainFinder{}).(gen); ok {
		t.Error("finder wrapper invents Generation for a finder without one")
	}

	sched := dsrt.New(dsrt.Config{Processors: 1}, nil)
	if _, ok := gara.ResourceManager(gara.NewDSRTManager(sched)).(gara.Binder); !ok {
		t.Fatal("test premise: the DSRT manager binds")
	}
	if _, ok := tr.manager(gara.NewDSRTManager(sched)).(gara.Binder); !ok {
		t.Error("manager wrapper hides gara.Binder: binding would stop")
	}
	compute := gara.NewComputeManager(resource.NewPool("p", resource.Nodes(1)))
	_, inner := gara.ResourceManager(compute).(gara.Binder)
	if _, outer := tr.manager(compute).(gara.Binder); inner != outer {
		t.Errorf("manager wrapper changes gara.Binder: inner %v, wrapped %v", inner, outer)
	}

	var untraced *tracer
	if untraced.finder(reg) != core.Finder(reg) {
		t.Error("untraced finder is wrapped")
	}
}

func TestOpenLoopReportsLateness(t *testing.T) {
	w := newWindow(time.Second)
	o := &openLoop{w: w, calls: newCallStats(), end: 60 * time.Millisecond,
		clients: []*httpapi.Client{nil, nil}}
	// Twenty items due 1 ms apart, each taking 10 ms on one of two
	// workers: the generator must fall behind, and say so.
	for i := 0; i < 20; i++ {
		o.pending = append(o.pending, &schedItem{due: time.Duration(i) * time.Millisecond, kind: itemFailure})
	}
	o.start = time.Now()
	o.run(func(*httpapi.Client, *schedItem) { time.Sleep(10 * time.Millisecond) })
	late := w.late.values()
	if len(late) == 0 {
		t.Fatal("no lateness samples recorded")
	}
	if p99 := quantile(late, 0.99); p99 < 5000 {
		t.Errorf("lateness p99 %.0f µs; an overloaded generator must report lateness", p99)
	}
}

func TestGoidDistinguishesGoroutines(t *testing.T) {
	self := goid()
	if goid() != self {
		t.Fatal("goid is not stable on one goroutine")
	}
	const n = 4
	ids := make(chan uint64, n)
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			id := goid()
			ids <- id
			<-release // stay alive so no two goroutines can share a record
		}()
	}
	seen := map[uint64]bool{self: true}
	for i := 0; i < n; i++ {
		id := <-ids
		if seen[id] {
			t.Errorf("two live goroutines share id %d", id)
		}
		seen[id] = true
	}
	close(release)
}

func TestQuantiles(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	if got := quantile(vs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if vs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i % 100)
	}
	if got := tailQuantile(long, 0.99); got != 98 && got != 99 {
		t.Errorf("windowed p99 = %v, want 98 or 99", got)
	}
}
