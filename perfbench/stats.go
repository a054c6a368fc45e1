package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the nearest-rank q-quantile of vs (0 for no samples)
// without reordering vs.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// tailQuantile reports a high quantile steadily: the samples are cut
// into consecutive windows of at least minWindow samples each (up to
// maxWindows windows), the quantile is taken per window, and the median
// of the windows is returned. A single stall then moves one window's
// figure, not the reported one.
func tailQuantile(vs []float64, q float64) float64 {
	const minWindow, maxWindows = 200, 9
	n := len(vs) / minWindow
	if n > maxWindows {
		n = maxWindows
	}
	if n < 3 {
		return quantile(vs, q)
	}
	per := make([]float64, 0, n)
	for w := 0; w < n; w++ {
		lo, hi := w*len(vs)/n, (w+1)*len(vs)/n
		per = append(per, quantile(vs[lo:hi], q))
	}
	return quantile(per, 0.5)
}

// samples is a goroutine-safe latency sample list, in µs.
type samples struct {
	mu sync.Mutex
	vs []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.vs = append(s.vs, float64(d.Nanoseconds())/1e3)
	s.mu.Unlock()
}

func (s *samples) addUS(us float64) {
	s.mu.Lock()
	s.vs = append(s.vs, us)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.vs...)
}

// rtSnap is a runtime/metrics reading.
type rtSnap struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r rtSnap
	if ss[0].Value.Kind() == metrics.KindUint64 {
		r.allocObjects = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ss[2].Value.Float64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = ss[3].Value.Float64()
	}
	return r
}

// heapSampler tracks the peak live heap over a run: the heap the last
// completed GC cycle found reachable, sampled from runtime/metrics on a
// short ticker. Unlike the heap in use, it does not swing with where in
// its cycle the collector happens to be.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				if v := s[0].Value.Uint64(); v > h.peak.Load() {
					h.peak.Store(v)
				}
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}
