package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"contention/internal/cluster"
	"contention/internal/core"
	"contention/internal/prob"
	"contention/internal/serve"
)

// ladderN is how many of the workload's requests the in-process ladder
// replays through each layer.
const ladderN = 400

// fleetReplicas is contentionlb's default -replicas: the fleet the
// cluster hop is measured through.
const fleetReplicas = 4

// traceHeader carries the benchmark's own trace id and parent span
// across the loopback socket, so the server-side handler span nests
// under the client's round-trip span.
const traceHeader = "X-Perfbench-Span"

// traced is the -trace 1 run of a serving workload: untraced and
// traced phases against the daemon, alternated (the difference is the
// tracing overhead), then the in-process ladder that replays the
// workload's own requests through prob, core, serve and cluster one
// layer at a time.
func (s *serving) traced(d *daemon) error {
	s.warm(d.addr)
	phase := time.Duration(s.cfg.seconds * float64(time.Second) / 8)
	tr := s.cfg.tracer

	// Untraced, traced, traced, untraced, same rate and length, so
	// drift over the run (a growing memo and heap, the host's speed)
	// falls on both sides alike.
	var off phaseStats
	var offP50, onP50, offCPU, onCPU float64 // means over the two phases of each kind
	for k, on := range []bool{false, true, true, false} {
		s.cfg.tracer = nil
		if on {
			s.cfg.tracer = tr
		}
		st, p50, cpu, err := s.fixedRate(d, phase)
		if err != nil {
			return err
		}
		if k == 0 {
			off = st
		}
		if on {
			onP50, onCPU = onP50+p50/2, onCPU+cpu/2
		} else {
			offP50, offCPU = offP50+p50/2, offCPU+cpu/2
		}
	}
	s.cfg.tracer = tr
	s.rep.setLayer("trace.overhead_p50_ms", onP50-offP50, "ms")
	s.rep.setLayer("trace.overhead_cpu_us_per_req", onCPU-offCPU, "us")
	s.rep.note("trace.overhead_p50_ms", "mean traced minus mean untraced phase; only the generator traces")
	s.rep.note("trace.overhead_cpu_us_per_req", "daemon CPU, which tracing does not touch: this reads run-to-run drift, not a tracing cost")
	s.setLoadgen(off)

	spans := tr.Spans()
	self := selfTimes(spans)
	s.rep.setLayer("wire.encode_ns", median(selfByName(spans, self, "wire.encode")), "ns")
	s.rep.setLayer("wire.resp_decode_ns", median(selfByName(spans, self, "wire.resp_decode")), "ns")
	measured := onP50

	items := s.gen.batch(ladderN)
	predicted, err := s.ladder(items)
	if err != nil {
		return err
	}
	// The ladder's account of one request against what the open-loop
	// client measured for the same workload.
	s.rep.setLayer("ladder.model_err_pct", 100*(predicted-measured)/measured, "%")
	s.rep.note("ladder.model_err_pct", fmt.Sprintf("ladder %.3f ms vs open-loop p50 %.3f ms", predicted, measured))
	if s.cfg.workload == "hot-keys" {
		return s.clusterHop()
	}
	return nil
}

// contenders converts a request's contender specs to model types.
func contenders(req *serve.Request) []core.Contender {
	cs := make([]core.Contender, len(req.Contenders))
	for i, c := range req.Contenders {
		cs[i] = core.Contender{CommFraction: c.CommFraction, MsgWords: c.MsgWords, IOFraction: c.IOFraction}
	}
	return cs
}

// slowdown asks p for the request's slowdown mixture, the call the
// memo cache sits behind.
func slowdown(p *core.Predictor, req *serve.Request, cs []core.Contender) (float64, error) {
	switch {
	case req.Kind == "comm":
		return p.CommSlowdown(cs)
	case req.J != nil:
		return p.CompSlowdownWithJ(cs, *req.J)
	}
	return p.CompSlowdown(cs)
}

// trySlowdown probes the memo for the request's mixture without
// computing it.
func trySlowdown(p *core.Predictor, req *serve.Request, cs []core.Contender) bool {
	var ok bool
	switch {
	case req.Kind == "comm":
		_, ok = p.TryCommSlowdown(cs)
	case req.J != nil:
		_, ok = p.TryCompSlowdownWithJ(cs, *req.J)
	default:
		_, ok = p.TryCompSlowdown(cs)
	}
	return ok
}

func newPredictor() *core.Predictor { return core.NewPredictorLenient(serve.SyntheticCalibration()) }

// ladder replays items through each layer in turn. Every call is a
// span; spans of one request share its trace id. It returns the
// ladder's cost of one request in ms: client encode, the loopback round
// trip (socket self time + handler) and client decode.
func (s *serving) ladder(items []item) (float64, error) {
	tr := s.cfg.tracer
	base := s.trace
	s.trace += uint64(len(items))
	bodies := make([][]byte, len(items))
	css := make([][]core.Contender, len(items))
	for i := range items {
		b, err := encode(nil, &items[i])
		if err != nil {
			return 0, err
		}
		bodies[i] = b
		css[i] = contenders(&items[i].req)
	}
	span := func(i int, name string, f func() error) error {
		t0 := time.Now()
		err := f()
		tr.Add(base+uint64(i), 0, name, t0, time.Now())
		return err
	}

	// prob: the Poisson-binomial DP over each request's comm and comp
	// activity probabilities.
	var dst []float64
	qs := make([]float64, 0, serve.MaxContenders)
	for i := range items {
		if err := span(i, "prob.dist", func() error {
			var err error
			qs = qs[:0]
			for _, c := range css[i] {
				qs = append(qs, c.CommFraction)
			}
			if dst, err = prob.AppendDistribution(dst, qs); err != nil {
				return err
			}
			qs = qs[:0]
			for _, c := range css[i] {
				qs = append(qs, c.CompFraction())
			}
			dst, err = prob.AppendDistribution(dst, qs)
			return err
		}); err != nil {
			return 0, err
		}
	}

	// core: first sight of a key is a miss (DP + memo insert), an
	// immediate repeat is a hit.
	p := newPredictor()
	for i := range items {
		req := &items[i].req
		name := "core.hit"
		if !trySlowdown(p, req, css[i]) {
			name = "core.miss"
		}
		if err := span(i, name, func() error { _, err := slowdown(p, req, css[i]); return err }); err != nil {
			return 0, err
		}
		if name == "core.miss" {
			if err := span(i, "core.hit", func() error { _, err := slowdown(p, req, css[i]); return err }); err != nil {
				return 0, err
			}
		}
	}

	// core.hit_pct: request order replayed on one Predictor, probing
	// before each call.
	p = newPredictor()
	hits := 0
	for i := range items {
		if trySlowdown(p, &items[i].req, css[i]) {
			hits++
		}
		if _, err := slowdown(p, &items[i].req, css[i]); err != nil {
			return 0, err
		}
	}
	s.rep.setLayer("core.hit_pct", 100*float64(hits)/float64(len(items)), "%")

	// core.memo_bytes_per_key: heap growth per key the memo adds.
	bytesPerKey, added, err := memoBytesPerKey(items, css)
	if err != nil {
		return 0, err
	}
	s.rep.setLayer("core.memo_bytes_per_key", bytesPerKey, "B")
	s.rep.note("core.memo_bytes_per_key", fmt.Sprintf("%d keys added by the second half of %d requests", added, len(items)))

	// serve: wire decode, then the unbatched reference call, warm.
	for i := range items {
		b := bodies[i]
		bin := items[i].binary
		if err := span(i, "serve.decode", func() error {
			var err error
			if bin {
				_, err = serve.DecodeBinaryRequest(b)
			} else {
				_, err = serve.DecodeRequest(bytes.NewReader(b))
			}
			return err
		}); err != nil {
			return 0, err
		}
	}
	p = newPredictor()
	for i := range items {
		if _, err := serve.Direct(p, &items[i].req, false); err != nil {
			return 0, err
		}
		var resp serve.Response
		if err := span(i, "serve.direct", func() error {
			var err error
			resp, err = serve.Direct(p, &items[i].req, false)
			return err
		}); err != nil {
			return 0, err
		}
		if err := s.chk.check(&items[i].req, resp); err != nil {
			return 0, fmt.Errorf("serve.Direct disagrees with the reference: %w", err)
		}
	}

	// serve handler through httptest: one goroutine, no socket.
	if err := s.handlerPass(items, bodies, base); err != nil {
		return 0, err
	}
	// The same server behind a 127.0.0.1 socket.
	rtt, err := s.loopbackPass(items, bodies, base)
	if err != nil {
		return 0, err
	}

	spans := tr.Spans()
	self := selfTimes(spans)
	med := func(name string) float64 { return median(selfByName(spans, self, name)) }
	s.rep.setLayer("prob.dist_ns", med("prob.dist"), "ns")
	s.rep.setLayer("core.miss_ns", med("core.miss"), "ns")
	s.rep.setLayer("core.hit_ns", med("core.hit"), "ns")
	s.rep.setLayer("serve.decode_ns", med("serve.decode"), "ns")
	s.rep.setLayer("serve.direct_ns", med("serve.direct"), "ns")
	s.rep.setLayer("serve.handler_us", med("serve.handler")/1e3, "us")
	s.rep.setLayer("serve.loopback_us", med("serve.loopback")/1e3, "us")
	return (med("wire.encode") + rtt + med("wire.resp_decode")) / 1e6, nil
}

// minMemoKeys is the fewest new keys memoBytesPerKey divides by: below
// it, the heap's own noise outweighs the entries.
const minMemoKeys = 64

// memoBytesPerKey is the live-heap cost of one memo entry. A fresh
// Predictor first memoizes the first half of items, so its fixed
// footprint (shards, maps, per-shard scratch) is in the baseline; the
// heap growth across the second half is divided by the keys that half
// added, as the memo's own probe counts them. It is 0 when the second
// half adds fewer than minMemoKeys.
func memoBytesPerKey(items []item, css [][]core.Contender) (float64, int, error) {
	var ms runtime.MemStats
	heap := func() int64 {
		// Twice: the first collection only moves sync.Pool contents to
		// the victim cache, the second frees them.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	p := newPredictor()
	half := len(items) / 2
	for i := range items[:half] {
		if _, err := slowdown(p, &items[i].req, css[i]); err != nil {
			return 0, 0, err
		}
	}
	before := heap()
	added := 0
	for i := half; i < len(items); i++ {
		if !trySlowdown(p, &items[i].req, css[i]) {
			added++
		}
		if _, err := slowdown(p, &items[i].req, css[i]); err != nil {
			return 0, 0, err
		}
	}
	after := heap()
	// Keep everything the baseline counted alive through the second
	// reading, or its collection would read as negative growth.
	runtime.KeepAlive(p)
	runtime.KeepAlive(items)
	runtime.KeepAlive(css)
	if added < minMemoKeys {
		return 0, added, nil
	}
	return float64(after-before) / float64(added), added, nil
}

// handlerPass drives serve.New(Config{Pred}).Handler() directly with
// prebuilt requests and recorders, one at a time, and counts heap
// allocations per call.
func (s *serving) handlerPass(items []item, bodies [][]byte, base uint64) error {
	srv, err := serve.New(serve.Config{Pred: newPredictor()})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	reqs := make([]*http.Request, len(items))
	recs := make([]*httptest.ResponseRecorder, len(items))
	for i := range items {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[i]))
		reqs[i].Header.Set("Content-Type", contentType(&items[i]))
		recs[i] = httptest.NewRecorder()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := range items {
		t0 := time.Now()
		h.ServeHTTP(recs[i], reqs[i])
		s.cfg.tracer.Add(base+uint64(i), 0, "serve.handler", t0, time.Now())
	}
	runtime.ReadMemStats(&ms)
	s.rep.setLayer("serve.handler_allocs", float64(ms.Mallocs-mallocs)/float64(len(items)), "count")
	for i := range items {
		resp, err := decodeReply(&items[i], recs[i].Code, recs[i].Body.Bytes())
		if err == nil {
			err = s.chk.check(&items[i].req, resp)
		}
		if err != nil {
			return fmt.Errorf("handler pass: %w", err)
		}
	}
	return nil
}

// loopbackPass serves the same kind of server on a 127.0.0.1 socket and
// sends items one at a time over one connection. The server-side
// handler span nests under the client's round-trip span, so the
// round trip's self time is the socket and HTTP stack cost. It returns
// the median round trip in ns.
func (s *serving) loopbackPass(items []item, bodies [][]byte, base uint64) (float64, error) {
	tr := s.cfg.tracer
	srv, err := serve.New(serve.Config{Pred: newPredictor()})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	inner := srv.Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		var trace uint64
		var parent int
		if _, err := fmt.Sscanf(r.Header.Get(traceHeader), "%d/%d", &trace, &parent); err == nil {
			tr.Add(trace, parent, "serve.handler.socket", t0, time.Now())
		}
	})
	addr, stop, err := listen(wrapped)
	if err != nil {
		return 0, err
	}
	defer stop()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	url := "http://" + addr + "/v1/predict"
	var rtts []float64
	var rb bytes.Buffer
	for i := range items {
		// The round-trip span is recorded first so the handler can name
		// it as parent; its end is patched in once the reply is read.
		t0 := time.Now()
		id := tr.Add(base+uint64(i), 0, "serve.loopback", t0, t0)
		hdr := http.Header{traceHeader: {fmt.Sprintf("%d/%d", base+uint64(i), id)}}
		status, err := send(hc, url, &items[i], bodies[i], hdr, &rb)
		end := time.Now()
		tr.SetEnd(id, end)
		rtts = append(rtts, float64(end.Sub(t0)))
		if err != nil {
			return 0, err
		}
		out, err := decodeReply(&items[i], status, rb.Bytes())
		if err == nil {
			err = s.chk.check(&items[i].req, out)
		}
		if err != nil {
			return 0, fmt.Errorf("loopback pass: %w", err)
		}
	}
	return median(rtts), nil
}

// listen serves h on a fresh 127.0.0.1 port until stop is called; stop
// returns once the server has shut down.
func listen(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		_ = hs.Serve(ln)
		close(done)
	}()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-done
	}, nil
}

// clusterHop measures what the balancer adds: the workload's requests
// at its rate, once through cluster.New with contentionlb's default
// in-process fleet, once straight to one in-process server. The
// difference of the two p50 round trips is the hop.
func (s *serving) clusterHop() error {
	dur := time.Duration(s.cfg.seconds * float64(time.Second) / 8)
	c, err := cluster.New(cluster.Config{
		Replicas: fleetReplicas,
		Factory:  cluster.InProcessFactory(cluster.InProcConfig{}),
	})
	if err != nil {
		return err
	}
	if err := c.Start(); err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	}()
	for deadline := time.Now().Add(10 * time.Second); c.UpCount() < fleetReplicas; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d of %d replicas up after 10s", c.UpCount(), fleetReplicas)
		}
	}
	viaCluster, err := s.hopPhase(c.Handler(), dur)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Pred: newPredictor()})
	if err != nil {
		return err
	}
	defer srv.Close()
	direct, err := s.hopPhase(srv.Handler(), dur)
	if err != nil {
		return err
	}
	s.rep.setLayer("cluster.hop_us", 1e3*(viaCluster-direct), "us")
	s.rep.note("cluster.hop_us", fmt.Sprintf("p50 %.3f ms via %d-replica cluster vs %.3f ms direct", viaCluster, fleetReplicas, direct))
	return nil
}

// hopPhase serves h on loopback and runs one untraced open-loop phase
// (after a warm-up second) against it; it returns the p50 in ms.
func (s *serving) hopPhase(h http.Handler, dur time.Duration) (float64, error) {
	addr, stop, err := listen(h)
	if err != nil {
		return 0, err
	}
	defer stop()
	c := newClient(addr, conns, nil)
	defer c.close()
	s.phase(c, s.gen.rate, time.Second)
	_, st := s.phase(c, s.gen.rate, dur)
	if st.ok == 0 {
		return 0, fmt.Errorf("hop phase: no request succeeded")
	}
	return st.p50(), nil
}
