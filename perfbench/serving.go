package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"contention/internal/serve"
)

// daemonProgram is the binary every serving workload runs, with its
// default flags.
const daemonProgram = "contentiond"

// limitMs is the latency limit capacity probes hold their tail
// percentile to.
const limitMs = 25.0

// servingSpec fixes a serving workload's shape. The requests and the
// offered rate come from a built-in scenario of internal/scenario (see
// traffic); only the fields below are the benchmark's own.
type servingSpec struct {
	builtin string  // scenario whose cohorts supply requests and rate
	freshP  int     // >0: every request gets a fresh multiset of 1..freshP contenders
	binary  float64 // share of requests sent in the binary format
}

// servingSpecs: hot-keys is the `mixed` scenario (three cohorts, 18
// multisets, homogeneous ones among them, comp requests pinning j);
// cold-keys is `steady`'s request stream with every multiset replaced
// by a fresh heterogeneous one of up to serve.MaxContenders.
var servingSpecs = map[string]servingSpec{
	"hot-keys":  {builtin: "mixed", binary: 0.5},
	"cold-keys": {builtin: "steady", freshP: serve.MaxContenders},
}

// conns is the generator's connection count, and so its in-flight cap:
// one per CPU of the 2-vCPU machine the workloads were sized on. It is
// fixed rather than read from the host so that the offered concurrency
// is the same wherever the benchmark runs.
const conns = 2

// setupSpawns is how many times set-up is timed per run; the median is
// reported.
const setupSpawns = 15

// serving is one serving workload run in progress.
type serving struct {
	cfg   runConfig
	gen   *traffic
	sched *rand.Rand
	chk   *checker
	rep   *report
	trace uint64 // next trace id
}

func runServing(cfg runConfig, rep *report) error {
	gen, err := newTraffic(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	s := &serving{
		cfg:   cfg,
		gen:   gen,
		sched: rand.New(rand.NewSource(cfg.seed ^ 0x5eed5c4ed)),
		chk:   newChecker(),
		rep:   rep,
	}
	bin := filepath.Join(cfg.binDir, daemonProgram)

	// Set-up: spawn → first 200 from /readyz, timed several times; the
	// last daemon stays up for the measured phases.
	var setups []float64
	var d *daemon
	for i := 0; i < setupSpawns; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		if d, took, err = startDaemon(bin); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()
	rep.note("setup_s", fmt.Sprintf("%s spawn→ready, median of %d", daemonProgram, setupSpawns))
	if cfg.trace {
		return s.traced(d)
	}
	rep.set("setup_s", median(setups), "s")

	s.warm(d.addr)
	total := time.Duration(cfg.seconds * float64(time.Second))
	fixed, p50, cpu, err := s.fixedRate(d, total*3/5)
	if err != nil {
		return err
	}
	rep.set("p50_ms", p50, "ms")
	rep.note("p50_ms", fmt.Sprintf("median of one-second windows' medians at %.0f req/s (whole phase: %.4g ms)", gen.rate, fixed.p50()))
	rep.set("server_cpu_us_per_req", cpu, "us")
	rep.note("server_cpu_us_per_req", "median over the fixed-rate phase's one-second windows")
	s.setLoadgen(fixed)
	if fixed.lagP99 >= p50 {
		rep.note("loadgen.lag_p99_ms", "SUSPECT: generator lateness rivals p50_ms; the host stalled the generator")
	}
	// Peak RSS after the fixed-rate phase: every run has then served the
	// same number of requests, whatever its capacity probes go on to send.
	rss, err := d.peakRSS()
	if err != nil {
		return err
	}
	capRate, err := s.capacity(d.addr, total-total*3/5)
	if err != nil {
		return err
	}
	q, tail := fixed.tail()
	rep.set("p99_ms", tail, "ms")
	rep.note("p99_ms", fmt.Sprintf("p%g of %d samples at %.0f req/s; printed, not gated", q, len(fixed.lat), gen.rate))
	rep.set("p90_ms", nearestRank(fixed.lat, 90), "ms")
	rep.set("capacity_rps", capRate, "1/s")
	rep.set("server_rss_mb", rss, "MB")
	rep.note("server_rss_mb", "VmHWM after the fixed-rate phase")
	return nil
}

// warmRequests is how many of the workload's requests warm-up sends
// closed loop.
const warmRequests = 512

// warm sends the first requests of the stream closed loop, then a
// second of traffic at the fixed rate, so caches fill and lazy set-up
// finishes before anything is timed.
func (s *serving) warm(addr string) {
	c := newClient(addr, conns, nil)
	defer c.close()
	items := s.gen.batch(warmRequests)
	res, _ := c.run(items, make([]time.Duration, len(items)), 0)
	s.account(items, res)
	s.phase(c, s.gen.rate, time.Second)
}

// phase runs one open-loop phase of fresh traffic at rate for d.
func (s *serving) phase(c *client, rate float64, d time.Duration) ([]result, phaseStats) {
	sched := arrivals(s.sched, rate, d)
	items := s.gen.batch(len(sched))
	res, st := c.run(items, sched, s.trace)
	s.trace += uint64(len(items))
	s.account(items, res)
	return res, st
}

// account verifies a phase's answers and adds its requests to the
// run's tallies.
func (s *serving) account(items []item, res []result) {
	for i := range res {
		s.rep.Attempted++
		if res[i].err != nil {
			s.rep.Failed++
			s.rep.firstErr(res[i].err)
			continue
		}
		if err := s.chk.check(&items[i].req, res[i].resp); err != nil {
			s.rep.Failed++
			s.rep.wrong++
			s.rep.firstErr(fmt.Errorf("wrong answer: %w", err))
		}
	}
}

// fixedRate runs one phase at the workload's offered rate, tracing it
// when the run traces. It samples the daemon's CPU every second and
// returns, besides the phase's stats, the median over those one-second
// windows of the window's median latency (ms) and of its daemon CPU per
// request (µs), so a host stall moves one window rather than the figure.
func (s *serving) fixedRate(d *daemon, dur time.Duration) (st phaseStats, p50, cpu float64, err error) {
	c := newClient(d.addr, conns, s.cfg.tracer)
	defer c.close()
	type sample struct {
		at  time.Time
		cpu time.Duration
	}
	cpu0, err := d.cpu()
	if err != nil {
		return st, 0, 0, err
	}
	samples := []sample{{time.Now(), cpu0}}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				if cpu, err := d.cpu(); err == nil {
					samples = append(samples, sample{time.Now(), cpu})
				}
			}
		}
	}()
	res, st := s.phase(c, s.gen.rate, dur)
	close(stop)
	<-done
	var p50s, cpus []float64
	for k := 0; k+1 < len(samples); k++ {
		lo, hi := samples[k].at.Sub(st.start), samples[k+1].at.Sub(st.start)
		var lat []float64
		for i := range res {
			if res[i].err == nil && res[i].done >= lo && res[i].done < hi {
				lat = append(lat, ms(res[i].latency()))
			}
		}
		if len(lat) < 20 {
			continue
		}
		p50s = append(p50s, median(lat))
		cpus = append(cpus, float64(samples[k+1].cpu-samples[k].cpu)/float64(time.Microsecond)/float64(len(lat)))
	}
	if len(p50s) == 0 {
		return st, 0, 0, fmt.Errorf("no one-second window at %.0f req/s had 20 successful requests", s.gen.rate)
	}
	return st, median(p50s), median(cpus), nil
}

// setLoadgen records the generator's own validity figures for a phase.
func (s *serving) setLoadgen(st phaseStats) {
	s.rep.setLayer("loadgen.lag_p99_ms", st.lagP99, "ms")
	s.rep.setLayer("loadgen.cpu_us_per_req", float64(st.genCPU)/float64(time.Microsecond)/float64(st.sent), "us")
}

// capStep is the length of one capacity probe.
const capStep = time.Second

// capacity finds the highest offered rate whose 90th percentile meets the
// workload's limit with no growing backlog, within budget. It measures
// closed-loop saturation first (the most two connections can carry, so
// the knee sits at or just below it), then bisects around it.
func (s *serving) capacity(addr string, budget time.Duration) (float64, error) {
	c := newClient(addr, conns, nil)
	defer c.close()
	end := time.Now().Add(budget)
	sat := s.saturation(c)
	lo, hi := 0.5*sat, 1.25*sat
	best := 0.0
	var probes []string
	defer func() {
		s.rep.note("capacity_rps", fmt.Sprintf("saturation %.0f; probes %s", sat, strings.Join(probes, " ")))
	}()
	for rate := sat; time.Until(end) >= capStep; rate = (lo + hi) / 2 {
		_, st := s.phase(c, rate, capStep)
		tail := nearestRank(st.lat, capPercentile)
		ok := s.meets(st)
		probes = append(probes, fmt.Sprintf("%.0f:%.1fms/%+.1f:%v", rate, tail, st.growth, ok))
		if ok {
			lo, best = rate, max(best, rate)
		} else {
			hi = rate
		}
	}
	if best == 0 {
		if _, st := s.phase(c, lo, capStep); !s.meets(st) {
			return 0, fmt.Errorf("capacity: no probe met the %g ms limit (saturation %.0f req/s)", limitMs, sat)
		}
		best = lo
	}
	return best, nil
}

// saturation is the closed-loop throughput of the generator's
// connections, each sending its next request as soon as the last
// returns.
func (s *serving) saturation(c *client) float64 {
	// Due times of zero make every request late at once: the workers
	// then run back to back, which is a closed loop.
	start := time.Now()
	n := 0
	for time.Since(start) < 400*time.Millisecond {
		items := s.gen.batch(256)
		res, _ := c.run(items, make([]time.Duration, len(items)), 0)
		s.account(items, res)
		n += len(items)
	}
	return float64(n) / time.Since(start).Seconds()
}

// capPercentile is the percentile capacity probes hold to the latency
// limit. It is the 90th, not the 99th: on a shared host the 99th of a
// one-second probe swings with scheduling stalls of the machine, which
// would make the knee a coin toss.
const capPercentile = 90

// meets reports whether a probe kept its capPercentile latency within
// the limit, lost no request and did not build a backlog: the median
// latency of its last quarter stays within a quarter of the limit of
// its first.
func (s *serving) meets(st phaseStats) bool {
	if st.failed > 0 || st.ok < 20 {
		return false
	}
	return nearestRank(st.lat, capPercentile) <= limitMs && st.growth <= limitMs/4
}
