package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"contention/internal/serve"
)

func generated(t *testing.T, w string, seed int64) []byte {
	t.Helper()
	gen, err := newTraffic(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	sched := arrivals(rand.New(rand.NewSource(seed)), 250, time.Second)
	items := gen.batch(len(sched))
	b, err := fingerprint(items, sched)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for w := range servingSpecs {
		a, b := generated(t, w, 7), generated(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w)
		}
		if c := generated(t, w, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w)
		}
	}
}

// homogeneous reports whether a multiset is one spec replicated at
// least twice, the class the precomputed surface covers.
func homogeneous(cs []serve.ContenderSpec) bool {
	for _, c := range cs {
		if c != cs[0] {
			return false
		}
	}
	return len(cs) > 1
}

func TestGeneratorShapes(t *testing.T) {
	for w := range servingSpecs {
		gen, err := newTraffic(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		bin, homog, withJ := 0, 0, 0
		for _, it := range gen.batch(2000) {
			if _, err := serve.Direct(newPredictor(), &it.req, false); err != nil {
				t.Fatalf("%s: generated an invalid request: %v", w, err)
			}
			if it.binary {
				bin++
			}
			if homogeneous(it.req.Contenders) {
				homog++
			}
			if it.req.J != nil {
				withJ++
			}
			p := len(it.req.Contenders)
			if w == "hot-keys" && p > 4 || p > serve.MaxContenders || w == "cold-keys" && p == 0 {
				t.Fatalf("%s: %d contenders", w, p)
			}
		}
		wantBinary := w != "cold-keys"
		if got := bin > 800 && bin < 1200; got != wantBinary {
			t.Errorf("%s: %d of 2000 requests binary", w, bin)
		}
		// Homogeneous multisets and explicit j on hot-keys, neither on
		// cold-keys.
		if got := homog > 0; got != (w == "hot-keys") {
			t.Errorf("%s: %d of 2000 requests homogeneous", w, homog)
		}
		if got := withJ > 0; got != (w == "hot-keys") {
			t.Errorf("%s: %d of 2000 requests pin j", w, withJ)
		}
	}
}

// The offered rate is the scenario's: `mixed` cohorts at their steady
// rates, `steady` at its own.
func TestTrafficRates(t *testing.T) {
	for w, want := range map[string]float64{"hot-keys": 150 + 250 + 50, "cold-keys": 400} {
		gen, err := newTraffic(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if gen.rate != want {
			t.Errorf("%s: rate %v, want %v", w, gen.rate, want)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {1, 1}} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("p%g = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{Trace: 1, ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{Trace: 1, ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	if got := selfByName(spans, self, "b"); len(got) != 1 || got[0] != 20 {
		t.Errorf("selfByName(b) = %v", got)
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	gen, _ := newTraffic("hot-keys", 3)
	it := gen.next()
	chk := newChecker()
	right, err := serve.Direct(newPredictor(), &it.req, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.check(&it.req, right); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	near := right
	near.Value *= 1 + relTol/2
	if err := chk.check(&it.req, near); err != nil {
		t.Fatalf("answer within the bound rejected: %v", err)
	}
	for _, bad := range []serve.Response{
		{Value: right.Value * (1 + 2*relTol)},
		{Value: right.Value, Degraded: true},
	} {
		if err := chk.check(&it.req, bad); err == nil {
			t.Errorf("wrong answer %+v accepted", bad)
		}
	}
}

// A server that answers 1% high must fail the run through the same
// generator and accounting path the workloads use.
func TestWrongServedValueFailsTheRun(t *testing.T) {
	srv, err := serve.New(serve.Config{Pred: newPredictor()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var resp serve.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Error(err)
		}
		resp.Value *= 1.01
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer ts.Close()

	gen, _ := newTraffic("cold-keys", 5)
	s := &serving{gen: gen, chk: newChecker(), rep: newReport()}
	c := newClient(strings.TrimPrefix(ts.URL, "http://"), 1, nil)
	defer c.close()
	items := gen.batch(5)
	res, st := c.run(items, make([]time.Duration, len(items)), 0)
	if st.ok != len(items) {
		t.Fatalf("%d of %d requests succeeded", st.ok, len(items))
	}
	s.account(items, res)
	if s.rep.wrong != len(items) || s.rep.Failed != len(items) {
		t.Fatalf("wrong=%d failed=%d, want %d each", s.rep.wrong, s.rep.Failed, len(items))
	}
}

func TestCheckPaperBands(t *testing.T) {
	results := func(fig5 float64) []byte {
		var rs []paperResult
		for id, bands := range paperBands {
			r := paperResult{ID: id, ModelErrPct: map[string]float64{}}
			for label := range bands {
				r.ModelErrPct[label] = 1
			}
			rs = append(rs, r)
		}
		for i := range rs {
			if rs[i].ID == "figure5" {
				rs[i].ModelErrPct["contended"] = fig5
			}
		}
		b, _ := json.Marshal(rs)
		return b
	}
	if _, err := checkPaper(results(12)); err != nil {
		t.Fatalf("in-band results rejected: %v", err)
	}
	if _, err := checkPaper(results(21)); err == nil {
		t.Fatal("figure5 at 21% (band 20%) accepted")
	}
}

// The metric tables here must match BENCHMARK.json at the repository
// root, which is what a run's result line is read against.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []declared, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: %v here, %+v in BENCHMARK.json", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads(), ",") {
		t.Errorf("workloads %v here, %v in BENCHMARK.json", workloads(), names)
	}
}

// fingerprint is a byte digest of generated inputs: every request's
// wire bytes followed by its due offset. Tests use it to pin the
// generator's determinism.
func fingerprint(items []item, sched []time.Duration) ([]byte, error) {
	var out, buf []byte
	var err error
	for i := range items {
		if buf, err = encode(buf, &items[i]); err != nil {
			return nil, err
		}
		out = append(out, buf...)
		out = binary.LittleEndian.AppendUint64(out, uint64(sched[i]))
	}
	return out, nil
}
