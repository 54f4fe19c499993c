package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"contention/internal/scenario"
	"contention/internal/serve"
)

// item is one generated prediction request: the wire Request and the
// format it travels in.
type item struct {
	req    serve.Request
	binary bool
}

// streamLen is how many requests a serving workload draws from its
// scenario up front; the generator cycles through them.
const streamLen = 1 << 15

// traffic generates a serving workload's requests from a seed. The
// requests come from the repository's own request model,
// internal/scenario: a built-in scenario's cohorts, each with its
// Workload (contender-multiset pool, homogeneous share, comm/comp and
// explicit-j weights). The programs under test see only the bytes it
// produces.
type traffic struct {
	rate   float64          // offered rate, req/s: the cohorts' steady rates summed
	reqs   []*serve.Request // the scenario's requests in arrival order
	n      int              // requests drawn so far
	rng    *rand.Rand       // wire-format and fresh-multiset draws
	freshP int              // >0: every request gets a fresh multiset of 1..freshP contenders
	binary float64          // share of requests sent in the binary format
}

// newTraffic builds the generator for a serving workload.
func newTraffic(w string, seed int64) (*traffic, error) {
	spec, ok := servingSpecs[w]
	if !ok {
		return nil, fmt.Errorf("no serving traffic for workload %q", w)
	}
	sc, err := scenario.Builtin(spec.builtin)
	if err != nil {
		return nil, err
	}
	t := &traffic{rng: rand.New(rand.NewSource(seed)), freshP: spec.freshP, binary: spec.binary}
	for i := range sc.Cohorts {
		c := &sc.Cohorts[i]
		r, err := steadyRate(c.Arrivals)
		if err != nil {
			return nil, fmt.Errorf("cohort %s: %w", c.Name, err)
		}
		c.Arrivals = scenario.Constant{Rate: r}
		t.rate += r
	}
	items, err := sc.Schedule(seed, time.Duration(streamLen/t.rate*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		t.reqs = append(t.reqs, it.Req)
	}
	return t, nil
}

// steadyRate is the rate an arrival process holds outside its
// transients: a sinusoid's mean, a flash crowd's base. The benchmark
// offers load at a fixed rate, so each cohort keeps its share of the
// scenario's traffic but not its swings.
func steadyRate(a scenario.Arrivals) (float64, error) {
	switch a := a.(type) {
	case scenario.Constant:
		return a.Rate, nil
	case scenario.Sinusoid:
		return a.Mean, nil
	case scenario.FlashCrowd:
		return a.Base, nil
	case scenario.MarkovBurst:
		return a.MeanRate(), nil
	}
	return 0, fmt.Errorf("no steady rate for arrivals %s", a.Spec())
}

// next draws one request.
func (t *traffic) next() item {
	it := item{req: *t.reqs[t.n%len(t.reqs)]}
	t.n++
	if t.freshP > 0 {
		it.req.Contenders = freshMix(t.rng, 1+t.rng.Intn(t.freshP))
	}
	it.binary = t.rng.Float64() < t.binary
	return it
}

// freshMix draws p contenders independently, each as scenario.Workload
// draws a pool contender: comm fraction on the 0.01 grid in [0, 0.8],
// message size below 2000 words. Such a multiset is heterogeneous, and
// at these sizes it is new to the memo every time.
func freshMix(rng *rand.Rand, p int) []serve.ContenderSpec {
	specs := make([]serve.ContenderSpec, p)
	for i := range specs {
		specs[i] = serve.ContenderSpec{CommFraction: math.Round(rng.Float64()*80) / 100, MsgWords: rng.Intn(2000)}
	}
	return specs
}

// batch draws n requests.
func (t *traffic) batch(n int) []item {
	items := make([]item, n)
	for i := range items {
		items[i] = t.next()
	}
	return items
}

// arrivals returns the send offsets of an open-loop Poisson process at
// rate per second over d, as scenario.Constant draws them: independent
// users, each request due at its offset whatever happened to earlier
// ones. There is always at least one.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	ts := scenario.Constant{Rate: rate}.Times(rng, d.Seconds(), nil)
	out := make([]time.Duration, max(len(ts), 1))
	for i, t := range ts {
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// encode renders a request in its wire format.
func encode(dst []byte, it *item) ([]byte, error) {
	if it.binary {
		return serve.AppendBinaryRequest(dst[:0], &it.req)
	}
	b, err := json.Marshal(&it.req)
	return append(dst[:0], b...), err
}
