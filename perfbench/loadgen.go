package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"

	"contention/internal/serve"
)

// result is what the generator saw for one request. Times are offsets
// from the phase start.
type result struct {
	due, enq, done time.Duration
	status         int
	resp           serve.Response
	err            error
}

// latency is the request's time from when it was due to the last
// response byte, so a stall also charges the requests queued behind it.
func (r *result) latency() time.Duration { return r.done - r.due }

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	sent, ok, failed int
	start            time.Time // when the phase's schedule began
	lat              []float64 // ms, successful requests, sorted
	lagP99           float64   // ms: generator lateness vs. schedule
	growth           float64   // ms: last-quarter minus first-quarter median latency
	genCPU           time.Duration
}

func (p *phaseStats) p50() float64 {
	if len(p.lat) == 0 {
		return 0
	}
	return nearestRank(p.lat, 50)
}

// tail returns the highest supported tail percentile and its value.
func (p *phaseStats) tail() (q, v float64) {
	q = tailPercentile(len(p.lat))
	if q == 0 {
		return 0, 0
	}
	return q, nearestRank(p.lat, q)
}

// client posts predictions to one address over a fixed number of
// connections.
type client struct {
	url   string
	conns []*http.Client
	trace *Tracer
}

func newClient(addr string, conns int, tr *Tracer) *client {
	c := &client{url: "http://" + addr + "/v1/predict", trace: tr}
	for i := 0; i < conns; i++ {
		c.conns = append(c.conns, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   10 * time.Second,
		})
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.conns {
		hc.CloseIdleConnections()
	}
}

// run drives items open-loop: item i is due at sched[i] after the
// phase starts. A dispatcher enqueues each request at its due time and
// never blocks; one worker per connection takes requests in order, so
// at most len(conns) are in flight and the rest wait in the generator,
// where that wait counts toward their latency. traceBase numbers the
// requests' trace ids.
func (c *client) run(items []item, sched []time.Duration, traceBase uint64) ([]result, phaseStats) {
	res := make([]result, len(items))
	queue := make(chan int, len(items)) // sized to the number of sends
	start := time.Now()
	cpu0 := processCPU()
	var wg sync.WaitGroup
	for w := range c.conns {
		wg.Add(1)
		go func(hc *http.Client) {
			defer wg.Done()
			var body []byte
			var rb bytes.Buffer
			for i := range queue {
				body = c.do(hc, start, &items[i], &res[i], traceBase+uint64(i), body, &rb)
			}
		}(c.conns[w])
	}
	for i := range items {
		sleepUntil(start.Add(sched[i]))
		res[i].due = sched[i]
		res[i].enq = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	st := phaseStats{sent: len(items), start: start, genCPU: processCPU() - cpu0}
	lags := make([]float64, len(res))
	for i := range res {
		r := &res[i]
		lags[i] = ms(r.enq - r.due)
		if r.err != nil {
			st.failed++
			continue
		}
		st.ok++
		st.lat = append(st.lat, ms(r.latency()))
	}
	st.growth = backlogGrowth(res)
	sort.Float64s(st.lat)
	if len(lags) > 0 {
		st.lagP99 = nearestRank(sortedCopy(lags), 99)
	}
	return res, st
}

// do sends one request and records its outcome. The spans it records
// (when tracing) are the request root from due time to decoded answer,
// with the generator queue wait, the client-side encode, the HTTP round
// trip and the response decode as children.
func (c *client) do(hc *http.Client, start time.Time, it *item, r *result, trace uint64, body []byte, rb *bytes.Buffer) []byte {
	tPick := time.Now()
	var err error
	body, err = encode(body, it)
	tEnc := time.Now()
	if err != nil {
		r.err = fmt.Errorf("encode: %w", err)
		return body
	}
	r.status, err = send(hc, c.url, it, body, nil, rb)
	tDone := time.Now()
	r.done = tDone.Sub(start)
	if err != nil {
		r.err = err
	} else {
		r.resp, r.err = decodeReply(it, r.status, rb.Bytes())
	}
	if c.trace != nil {
		tDec := time.Now()
		due := start.Add(r.due)
		root := c.trace.Add(trace, 0, "loadgen.request", due, tDec)
		c.trace.Add(trace, root, "loadgen.queue", due, tPick)
		c.trace.Add(trace, root, "wire.encode", tPick, tEnc)
		c.trace.Add(trace, root, "http.roundtrip", tEnc, tDone)
		c.trace.Add(trace, root, "wire.resp_decode", tDone, tDec)
	}
	return body
}

func contentType(it *item) string {
	if it.binary {
		return serve.ContentTypeBinary
	}
	return "application/json"
}

// send posts one encoded request in its wire format, with hdr's headers
// added when hdr is not nil, and reads the whole reply into rb. It
// returns the reply's status.
func send(hc *http.Client, url string, it *item, body []byte, hdr http.Header, rb *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType(it))
	for k, v := range hdr {
		req.Header[k] = v
	}
	rb.Reset()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = rb.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// decodeReply turns a reply's status and body into the served answer.
func decodeReply(it *item, status int, body []byte) (serve.Response, error) {
	var resp serve.Response
	switch {
	case status != http.StatusOK:
		return resp, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	case it.binary:
		return serve.DecodeBinaryResponse(body)
	}
	err := json.Unmarshal(body, &resp)
	return resp, err
}

// backlogGrowth compares the median latency of the last quarter of the
// requests (in schedule order) with that of the first: a queue that
// keeps growing shows as a positive difference.
func backlogGrowth(res []result) float64 {
	q := len(res) / 4
	if q == 0 {
		return 0
	}
	quarter := func(rs []result) float64 {
		var l []float64
		for i := range rs {
			if rs[i].err == nil {
				l = append(l, ms(rs[i].latency()))
			}
		}
		return median(l)
	}
	return quarter(res[len(res)-q:]) - quarter(res[:q])
}

// sleepUntil blocks the calling thread in the kernel until t. Go's own
// timers round sub-millisecond waits up to a millisecond when the
// process is idle, which would make the generator late by about that
// much on every request; nanosleep overshoots by tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
