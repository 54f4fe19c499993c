package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"contention/internal/cluster"
	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/obs"
	"contention/internal/runner"
	"contention/internal/scenario"
	"contention/internal/serve"
	"contention/internal/surface"
)

// Scenario-sweep telemetry: matrix coverage and per-cell traffic.
var (
	mSweepCells = obs.NewCounter(obs.MetricScenarioSweepCells,
		"scenario sweep matrix cells executed")
	mSweepRequests = obs.NewCounter(obs.MetricScenarioSweepRequest,
		"requests issued by the scenario sweep (record and replay passes)")
)

const (
	scenarioReplaySeed    = 42
	scenarioReplayHorizon = 2 * time.Second
	scenarioReplayBuckets = 10
)

// scenarioReplayPass replays every record of a generated trace on a DES
// kernel: each arrival is an event at its recorded offset on the
// virtual clock, evaluated through the no-batcher serve path
// (serve.Direct) against the shared predictor. It returns the predicted
// value per record plus per-bucket arrival counts by cohort and bucket
// value sums — everything derived from the virtual clock and the
// predictor, so two passes over the same trace must agree bit-for-bit.
func scenarioReplayPass(env *Env, hdr scenario.TraceHeader, recs []scenario.Record) (values []float64, counts map[string][]float64, sums, ns []float64, err error) {
	k := des.New()
	defer k.Close()
	values = make([]float64, len(recs))
	counts = map[string][]float64{}
	sums = make([]float64, scenarioReplayBuckets)
	ns = make([]float64, scenarioReplayBuckets)
	width := scenarioReplayHorizon.Seconds() / scenarioReplayBuckets
	var evalErr error
	for i := range recs {
		i := i
		rec := recs[i]
		k.At(rec.Offset.Seconds(), func() {
			if evalErr != nil {
				return
			}
			req, derr := scenario.DecodeRequestBytes(rec.Req, hdr.Format)
			if derr != nil {
				evalErr = fmt.Errorf("record %d: %w", i, derr)
				return
			}
			resp, derr := serve.Direct(env.Pred, req, false)
			if derr != nil {
				evalErr = fmt.Errorf("record %d: %w", i, derr)
				return
			}
			values[i] = resp.Value
			b := int(k.Now() / width)
			if b >= scenarioReplayBuckets {
				b = scenarioReplayBuckets - 1
			}
			if counts[rec.Cohort] == nil {
				counts[rec.Cohort] = make([]float64, scenarioReplayBuckets)
			}
			counts[rec.Cohort][b]++
			sums[b] += resp.Value
			ns[b]++
		})
	}
	k.Run()
	if evalErr != nil {
		return nil, nil, nil, nil, evalErr
	}
	return values, counts, sums, ns, nil
}

// ScenarioReplay is the deterministic replay exhibit: the mixed builtin
// scenario is realized once into an in-memory contention/trace/v1
// stream, then replayed twice through a DES-clocked driver, and every
// predicted value must agree bit-for-bit between the passes. The series
// show each cohort's arrival rate over virtual time next to the mean
// predicted slowdown — the traffic shape the generators exist to
// produce, and the model's response to it.
func ScenarioReplay(env *Env) (Result, error) {
	sc, err := scenario.Builtin("mixed")
	if err != nil {
		return Result{}, err
	}
	var buf bytes.Buffer
	if _, err := scenario.WriteSchedule(&buf, sc, scenarioReplaySeed, scenarioReplayHorizon, scenario.FormatBinary); err != nil {
		return Result{}, err
	}
	raw := buf.Bytes()
	hdr, recs, err := scenario.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		return Result{}, err
	}

	first, counts, sums, ns, err := scenarioReplayPass(env, hdr, recs)
	if err != nil {
		return Result{}, err
	}
	second, _, _, _, err := scenarioReplayPass(env, hdr, recs)
	if err != nil {
		return Result{}, err
	}
	mismatches := 0
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			mismatches++
			scenario.CountReplayMismatch()
		}
	}
	if mismatches > 0 {
		return Result{}, fmt.Errorf("scenarioreplay: %d of %d replayed predictions diverged between passes", mismatches, len(recs))
	}

	width := scenarioReplayHorizon.Seconds() / scenarioReplayBuckets
	x := make([]float64, scenarioReplayBuckets)
	for b := range x {
		x[b] = (float64(b) + 0.5) * width
	}
	cohorts := make([]string, 0, len(counts))
	for name := range counts {
		cohorts = append(cohorts, name)
	}
	sort.Strings(cohorts)
	var series []Series
	for _, name := range cohorts {
		y := make([]float64, scenarioReplayBuckets)
		for b, c := range counts[name] {
			y[b] = c / width
		}
		series = append(series, Series{Name: name + " req/s", X: x, Y: y})
	}
	mean := make([]float64, scenarioReplayBuckets)
	for b := range mean {
		if ns[b] > 0 {
			mean[b] = sums[b] / ns[b]
		}
	}
	series = append(series, Series{Name: "mean slowdown", X: x, Y: mean})

	return Result{
		ID:     "scenarioreplay",
		Title:  "Scenario trace replay on the DES clock (mixed builtin)",
		XLabel: "time (s)",
		YLabel: "arrivals (req/s) / predicted slowdown",
		Series: series,
		Notes: []string{
			fmt.Sprintf("trace: %d records, %d bytes, seed %d, horizon %v, %s wire",
				len(recs), len(raw), scenarioReplaySeed, scenarioReplayHorizon, hdr.Format),
			fmt.Sprintf("replay determinism: %d/%d predictions bit-identical across passes", len(recs), len(recs)),
		},
		ModelErrPct: map[string]float64{"replay": 0},
	}, nil
}

// sweepTarget is one serving configuration a sweep cell drives:
// issue posts one wire body and reports (status, response); close tears
// the target down.
type sweepTarget struct {
	issue func(body []byte) (int, serve.Response)
	close func()
}

// directTarget evaluates bodies in-process through serve.Direct — the
// no-batcher baseline. Decode or validation failures count as 400s,
// mirroring the HTTP path's status mapping.
func directTarget(wire string) (*sweepTarget, error) {
	cal := serve.SyntheticCalibration()
	pred, err := core.NewPredictor(cal)
	if err != nil {
		return nil, err
	}
	tryFast := wire == "binary+surface"
	if tryFast {
		s, err := surface.Build(cal.Tables, surface.Config{})
		if err != nil {
			return nil, err
		}
		if err := pred.AttachSurface(s); err != nil {
			return nil, err
		}
	}
	format := scenario.FormatJSON
	if wire != "json" {
		format = scenario.FormatBinary
	}
	return &sweepTarget{
		issue: func(body []byte) (int, serve.Response) {
			req, err := scenario.DecodeRequestBytes(body, format)
			if err != nil {
				return http.StatusBadRequest, serve.Response{}
			}
			resp, err := serve.Direct(pred, req, tryFast)
			if err != nil {
				return http.StatusBadRequest, serve.Response{}
			}
			return http.StatusOK, resp
		},
		close: func() {},
	}, nil
}

// httpTarget posts bodies to a handler over loopback HTTP.
func httpTarget(handler http.Handler, contentType string, binary bool, stop func()) *sweepTarget {
	ts := httptest.NewServer(handler)
	client := ts.Client()
	url := ts.URL + "/v1/predict"
	return &sweepTarget{
		issue: func(body []byte) (int, serve.Response) {
			resp, err := client.Post(url, contentType, bytes.NewReader(body))
			if err != nil {
				return 0, serve.Response{}
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return resp.StatusCode, serve.Response{}
			}
			var out serve.Response
			if binary {
				var raw bytes.Buffer
				if _, err := raw.ReadFrom(resp.Body); err != nil {
					return 0, serve.Response{}
				}
				if out, err = serve.DecodeBinaryResponse(raw.Bytes()); err != nil {
					return 0, serve.Response{}
				}
			} else if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				return 0, serve.Response{}
			}
			return resp.StatusCode, out
		},
		close: func() { ts.Close(); stop() },
	}
}

// batchedTarget serves bodies through the full micro-batching server.
func batchedTarget(wire string) (*sweepTarget, error) {
	cal := serve.SyntheticCalibration()
	pred, err := core.NewPredictor(cal)
	if err != nil {
		return nil, err
	}
	withSurface := wire == "binary+surface"
	if withSurface {
		s, err := surface.Build(cal.Tables, surface.Config{})
		if err != nil {
			return nil, err
		}
		if err := pred.AttachSurface(s); err != nil {
			return nil, err
		}
	}
	srv, err := serve.New(serve.Config{
		Pred: pred, Pool: runner.New(0), Window: 200 * time.Microsecond, FastPath: withSurface,
	})
	if err != nil {
		return nil, err
	}
	binary := wire != "json"
	contentType := "application/json"
	if binary {
		contentType = serve.ContentTypeBinary
	}
	return httpTarget(srv.Handler(), contentType, binary, func() { srv.Close() }), nil
}

// clusterTarget serves bodies through a 2-replica affinity-routed
// cluster. Replicas take no surface, so binary+surface cells measure
// the plain binary path here (noted on the sweep result).
func clusterTarget(wire string) (*sweepTarget, error) {
	c, err := cluster.New(cluster.Config{
		Replicas: 2,
		Factory:  cluster.InProcessFactory(cluster.InProcConfig{Window: 200 * time.Microsecond}),
	})
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	binary := wire != "json"
	contentType := "application/json"
	if binary {
		contentType = serve.ContentTypeBinary
	}
	return httpTarget(c.Handler(), contentType, binary, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	}), nil
}

// sweepIssueAll drives bodies through the target with a small worker
// pool and returns per-body statuses, responses, and latencies
// (seconds) in body order.
func sweepIssueAll(tg *sweepTarget, bodies [][]byte, conc int) ([]int, []serve.Response, []float64) {
	statuses := make([]int, len(bodies))
	outs := make([]serve.Response, len(bodies))
	lats := make([]float64, len(bodies))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				statuses[i], outs[i] = tg.issue(bodies[i])
				lats[i] = time.Since(t0).Seconds()
				mSweepRequests.Inc()
			}
		}()
	}
	for i := range bodies {
		next <- i
	}
	close(next)
	wg.Wait()
	return statuses, outs, lats
}

// sweepVerify compares a replay pass against the record pass: statuses
// must match exactly and 200 values bit-for-bit, except where the
// fast-path verdict flipped between passes (admission timing), where
// the surface's interpolation tolerance applies.
func sweepVerify(recStatus, repStatus []int, recOut, repOut []serve.Response) int {
	mismatches := 0
	for i := range recStatus {
		if recStatus[i] != repStatus[i] {
			mismatches++
			scenario.CountReplayMismatch()
			continue
		}
		if recStatus[i] != http.StatusOK {
			continue
		}
		if recOut[i].Fast == repOut[i].Fast {
			if math.Float64bits(recOut[i].Value) != math.Float64bits(repOut[i].Value) {
				mismatches++
				scenario.CountReplayMismatch()
			}
			continue
		}
		rel := math.Abs(recOut[i].Value-repOut[i].Value) / math.Max(math.Abs(recOut[i].Value), 1e-12)
		if rel > 1e-3 {
			mismatches++
			scenario.CountReplayMismatch()
		}
	}
	return mismatches
}

// ScenarioSweep runs the full scenario matrix: every builtin scenario ×
// {json, binary, binary+surface} wire × {direct, batched, cluster}
// serving mode. Each cell realizes a bounded schedule, drives it twice
// through a fresh target — a record pass and a replay pass — verifies
// the replay reproduced the recorded responses, and reports throughput,
// latency percentiles, batched%, and fast% per cell. n bounds the
// requests per cell. The returned report feeds the run manifest; the
// Result renders the matrix as text.
func ScenarioSweep(env *Env, n int) (Result, *obs.ScenarioReport, error) {
	if n < 1 {
		n = 1
	}
	wires := []string{"json", "binary", "binary+surface"}
	modes := []string{"direct", "batched", "cluster"}

	// One realized schedule per scenario, shared across its cells so
	// every wire/mode combination sees identical traffic.
	type realized struct {
		json, binary [][]byte
	}
	schedules := map[string]*realized{}
	for _, name := range scenario.BuiltinNames() {
		sc, err := scenario.Builtin(name)
		if err != nil {
			return Result{}, nil, err
		}
		items, err := sc.Schedule(7, time.Second)
		if err != nil {
			return Result{}, nil, err
		}
		if len(items) > n {
			items = items[:n]
		}
		r := &realized{}
		for _, it := range items {
			jb, err := scenario.EncodeItem(it, scenario.FormatJSON)
			if err != nil {
				return Result{}, nil, err
			}
			bb, err := scenario.EncodeItem(it, scenario.FormatBinary)
			if err != nil {
				return Result{}, nil, err
			}
			r.json = append(r.json, jb)
			r.binary = append(r.binary, bb)
		}
		schedules[name] = r
	}

	report := &obs.ScenarioReport{}
	for _, name := range scenario.BuiltinNames() {
		for _, wire := range wires {
			bodies := schedules[name].binary
			if wire == "json" {
				bodies = schedules[name].json
			}
			for _, mode := range modes {
				var (
					tg  *sweepTarget
					err error
				)
				switch mode {
				case "direct":
					tg, err = directTarget(wire)
				case "batched":
					tg, err = batchedTarget(wire)
				case "cluster":
					tg, err = clusterTarget(wire)
				}
				if err != nil {
					return Result{}, nil, fmt.Errorf("scenariosweep %s/%s/%s: %w", name, wire, mode, err)
				}
				t0 := time.Now()
				recStatus, recOut, lats := sweepIssueAll(tg, bodies, 8)
				elapsed := time.Since(t0).Seconds()
				repStatus, repOut, _ := sweepIssueAll(tg, bodies, 8)
				tg.close()
				mismatches := sweepVerify(recStatus, repStatus, recOut, repOut)
				mSweepCells.Inc()

				ok, batched, fast := 0, 0, 0
				for i, s := range recStatus {
					if s != http.StatusOK {
						continue
					}
					ok++
					if recOut[i].Batch > 1 {
						batched++
					}
					if recOut[i].Fast {
						fast++
					}
				}
				sort.Float64s(lats)
				cell := obs.ScenarioCell{
					Scenario: name, Wire: wire, Mode: mode,
					Requests:         len(bodies),
					ReqPerSec:        float64(len(bodies)) / elapsed,
					P50Ms:            percentileSeconds(lats, 50) * 1e3,
					P99Ms:            percentileSeconds(lats, 99) * 1e3,
					BatchedPct:       pct(batched, ok),
					FastPct:          pct(fast, ok),
					ReplayMismatches: mismatches,
				}
				report.Cells = append(report.Cells, cell)
				report.Replayed += len(bodies)
				report.Mismatches += mismatches
				if ok == 0 {
					return Result{}, nil, fmt.Errorf("scenariosweep %s/%s/%s: no successful requests", name, wire, mode)
				}
			}
		}
	}
	if report.Mismatches > 0 {
		return Result{}, nil, fmt.Errorf("scenariosweep: %d replay mismatches across the matrix", report.Mismatches)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "%-12s %-16s %-8s %8s %10s %9s %9s %9s %7s\n",
		"scenario", "wire", "mode", "reqs", "req/s", "p50-ms", "p99-ms", "batch%", "fast%")
	for _, c := range report.Cells {
		fmt.Fprintf(&b, "%-12s %-16s %-8s %8d %10.0f %9.3f %9.3f %9.1f %7.1f\n",
			c.Scenario, c.Wire, c.Mode, c.Requests, c.ReqPerSec, c.P50Ms, c.P99Ms, c.BatchedPct, c.FastPct)
	}
	return Result{
		ID:    "scenariosweep",
		Title: "Scenario sweep matrix: builtin scenarios × wire format × serving mode",
		Text:  b.String(),
		Notes: []string{
			fmt.Sprintf("%d cells, %d requests replayed, %d mismatches", len(report.Cells), report.Replayed, report.Mismatches),
			"cluster replicas take no surface: binary+surface cluster cells measure the plain binary path",
			"throughput and latency cells are wall-clock measurements; replay verification is the deterministic gate",
		},
		ModelErrPct: map[string]float64{"replay": 100 * float64(report.Mismatches) / float64(max(report.Replayed, 1))},
	}, report, nil
}

// pct is the percentage of part in whole, 0 when whole is 0.
func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// percentileSeconds returns the p-th percentile (nearest rank) of
// sorted data, 0 when empty.
func percentileSeconds(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
