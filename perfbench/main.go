// Command perfbench is the repository's benchmark. It runs one named
// workload against the programs as built from this checkout and prints
// every metric by name with its unit; the last line of its output is a
// JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench -workload hot-keys -seed 1 -seconds 10 -trace 0 -bin DIR
//
// With -trace 0 it reports the end-to-end metrics, measured with
// tracing off. With -trace 1 it records a span around every call it
// makes into a layer, writes the spans to -out, and reports the
// per-layer metrics instead. A wrong answer, a paper figure outside its
// error band, or two reproductions that differ make it exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// declared is a metric the result line carries, with its unit.
type declared struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports, for every workload.
// Other figures a run measures (p99_ms, error_pct, reproduce_s, ...) are
// printed but left out of the result line: the tail swings with the
// host's scheduling noise far beyond any bound a change could be held
// to, and the error shares are 0 on every healthy run.
var endToEnd = []declared{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"capacity_rps", "1/s"},
	{"server_cpu_us_per_req", "us"}, {"server_rss_mb", "MB"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	binDir   string
	outDir   string
	tracer   *Tracer // nil unless trace
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	e2e, layers map[string]metric
	notes       map[string]string
	wrong       int // answers that came back but were wrong (counted in Failed too)
	first       error
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string)      { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }
func (r *report) note(name, text string)                       { r.notes[name] = text }

func (r *report) firstErr(err error) {
	if r.first == nil {
		r.first = err
	}
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads(), ", ")+", or all (one after another)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding the built contentiond and experiments")
	flag.StringVar(&cfg.outDir, "out", "", "directory for span files (traced runs)")
	flag.Parse()
	if err := validate(&cfg, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloads()
	}
	correct := true
	for _, w := range names {
		cfg.workload = w
		ok, err := runOne(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		correct = correct && ok
	}
	if !correct {
		os.Exit(1)
	}
}

// runOne runs one workload, prints its report, and says whether every
// answer was right.
func runOne(cfg runConfig) (bool, error) {
	if cfg.trace {
		cfg.tracer = newTracer()
	}
	rep := newReport()
	var err error
	if cfg.workload == "paper-suite" {
		err = runPaper(cfg, rep)
	} else {
		err = runServing(cfg, rep)
	}
	if err != nil {
		return false, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	prov := provenance()
	if cfg.trace && cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := cfg.tracer.WriteFile(path, prov); err != nil {
			return false, fmt.Errorf("write spans: %w", err)
		}
		rep.note("spans", path)
	}
	if err := emit(cfg, rep, prov); err != nil {
		return false, err
	}
	return rep.Correct, nil
}

func workloads() []string { return []string{"hot-keys", "cold-keys", "paper-suite"} }

func validate(cfg *runConfig, trace int) error {
	known := cfg.workload == "all"
	for _, w := range workloads() {
		known = known || w == cfg.workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads(), ", "))
	case cfg.seconds < 1 || cfg.seconds > 60:
		return fmt.Errorf("-seconds %v out of [1, 60]", cfg.seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	case cfg.binDir == "":
		return fmt.Errorf("-bin is required")
	}
	return nil
}

// emit prints the provenance stamp, every metric with its unit and
// note, and finally the one-line JSON result.
func emit(cfg runConfig, rep *report, prov map[string]any) error {
	pb, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("provenance %s\n", pb)

	// The JSON carries exactly the declared metrics; anything else
	// measured is printed only.
	from, names := rep.e2e, endToEnd
	if cfg.trace {
		from, names = rep.layers, perLayer
		for _, d := range perLayer {
			if _, ok := rep.layers[d.name]; !ok {
				rep.layers[d.name] = metric{0, d.unit}
				rep.note(d.name, "layer not exercised by this workload")
			}
		}
	}
	rep.Metrics = map[string]metric{}
	for _, d := range names {
		m, ok := from[d.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		rep.Metrics[d.name] = m
	}
	errPct := 0.0
	if rep.Attempted > 0 {
		errPct = 100 * float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.Correct = rep.wrong == 0 && rep.Failed == 0 && rep.Attempted > 0
	lines := map[string]metric{"error_pct": {errPct, "%"}}
	for k, v := range rep.e2e {
		lines[k] = v
	}
	for k, v := range rep.layers {
		lines[k] = v
	}
	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := lines[k]
		line := fmt.Sprintf("  %-32s %14s %s", k, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		if n := rep.notes[k]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("  attempted=%d failed=%d wrong=%d\n", rep.Attempted, rep.Failed, rep.wrong)
	if rep.first != nil {
		fmt.Printf("  first failure: %v\n", rep.first)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
