package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// The generators below are pure functions of the seed: each stream
// draws a fixed number of values per step whatever the broker answers,
// so a client's inputs never depend on another client's interleaving.

// draw is one generated step: an operation selector and three operands.
type draw struct{ op, r1, r2, r3 int }

// opGen is one client's seeded operation stream.
type opGen struct{ rng *rand.Rand }

func newOpGen(seed int64, stream int) *opGen {
	return &opGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919 + 1))}
}

func (g *opGen) next() draw {
	return draw{g.rng.Intn(100), g.rng.Intn(1 << 16), g.rng.Intn(1 << 16), g.rng.Intn(1 << 16)}
}

// computeRequest builds a compute ask from a draw: a guaranteed exact
// ask, or a controlled-load range ask, the mix and adaptation options
// chosen by the draw's operands. maxCPU scales the asks.
func computeRequest(d draw, now time.Time, client string, maxCPU int) core.Request {
	req := core.Request{Service: "simulation", Client: client, Start: now}
	life := time.Duration(20+d.r3%220) * time.Minute
	req.End = now.Add(life)
	cpu := float64(1 + d.r2%maxCPU)
	mem := float64(256 * (1 + (d.r2>>4)%4))
	if d.r1%2 == 0 {
		req.Class = sla.ClassGuaranteed
		req.Spec = sla.NewSpec(sla.Exact(resource.CPU, cpu), sla.Exact(resource.MemoryMB, mem))
		req.AcceptDegradation = (d.r1>>1)%4 == 0
		req.AcceptTermination = (d.r1>>3)%5 == 0
		return req
	}
	span := float64(1 + (d.r2>>6)%3)
	req.Class = sla.ClassControlledLoad
	req.Spec = sla.NewSpec(sla.Range(resource.CPU, cpu, cpu+span), sla.Range(resource.MemoryMB, mem, 2*mem))
	req.AcceptDegradation = (d.r1>>1)%5 < 3
	req.AcceptTermination = (d.r1>>3)%5 == 0
	req.PromotionOptIn = (d.r1>>5)%3 == 0
	return req
}

// renegotiatedSpec is the new ask for a renegotiation draw.
func renegotiatedSpec(d draw, class sla.Class, maxCPU int) sla.Spec {
	cpu := float64(1 + d.r2%maxCPU)
	mem := float64(256 * (1 + (d.r3>>4)%4))
	if class == sla.ClassGuaranteed {
		return sla.NewSpec(sla.Exact(resource.CPU, cpu), sla.Exact(resource.MemoryMB, mem))
	}
	return sla.NewSpec(sla.Range(resource.CPU, cpu, cpu+2), sla.Range(resource.MemoryMB, mem, 2*mem))
}

// describe renders a request canonically for digests.
func describe(r core.Request) string {
	return fmt.Sprintf("%s|%s|%v|%v|%s|%s|%v|%v|%v|%s|%s", r.Service, r.Client, r.Class,
		r.Spec.Params, r.Start.Format(time.RFC3339), r.End.Format(time.RFC3339),
		r.AcceptDegradation, r.AcceptTermination, r.PromotionOptIn, r.Spec.SourceIP, r.Spec.DestIP)
}

// opStreamDigest digests the first n generated inputs of a workload for
// a seed, so tests can check that a seed fixes the inputs.
func opStreamDigest(workload string, seed int64, n int) (string, error) {
	h := fnv.New64a()
	write := func(s string) { _, _ = h.Write([]byte(s)); _, _ = h.Write([]byte{'\n'}) }
	switch workload {
	case "inproc-lifecycle", "soap-lifecycle":
		for c := 0; c < 2; c++ {
			g := newOpGen(seed, c)
			for i := 0; i < n; i++ {
				d := g.next()
				write(fmt.Sprint(d))
				write(describe(computeRequest(d, epoch, "c"+strconv.Itoa(c), 6)))
			}
		}
	case "json-durable":
		for _, it := range openLoopSchedule(seed, jsonRate, time.Duration(n)*time.Second/jsonRate) {
			write(fmt.Sprintf("%d|%d|%d|%v|%s", it.due, it.kind, it.hold, it.accept, describe(it.req)))
		}
	case "failure-adapt":
		ep := newEpisode(seed, 0, false)
		for _, r := range ep.population {
			write(describe(r))
		}
		for _, c := range ep.cycles {
			write(fmt.Sprint(c))
		}
	default:
		return "", fmt.Errorf("unknown workload %q", workload)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
