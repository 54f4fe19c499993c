package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"contention/internal/experiments"
	"contention/internal/runner"
)

// paperBands are the error bounds (MAPE %, per comparison label) the
// figure tests enforce; a reproduction outside any of them fails the
// run.
var paperBands = map[string]map[string]float64{
	"figure1":   {"p=0": 5, "p=3": 15},
	"figure3":   {"p=3": 15},
	"figure5":   {"contended": 20},
	"figure6":   {"contended": 25},
	"figure7":   {"j=1000": 10},
	"figure8":   {"j=500": 15},
	"synthetic": {"suite": 15},
}

// paperFigures are the paper's own exhibits whose model error
// paper_err_pct averages.
var paperFigures = map[string]bool{
	"figure1": true, "figure2": true, "figure3": true, "figure4": true,
	"figure5": true, "figure6": true, "figure7": true, "figure8": true,
}

// minReproductions is the least number of reproductions a run makes,
// however short -seconds is: two are needed to compare outputs.
const minReproductions = 3

// setupEnvs is how many times the paper suite's set-up is timed.
const setupEnvs = 3

type paperResult struct {
	ID          string
	ModelErrPct map[string]float64
}

// checkPaper decodes one reproduction's JSON output, checks every
// figure against its band, and returns the mean model error over the
// paper's figures.
func checkPaper(out []byte) (float64, error) {
	var rs []paperResult
	if err := json.Unmarshal(out, &rs); err != nil {
		return 0, fmt.Errorf("decode experiments output: %w", err)
	}
	seen := map[string]bool{}
	var sum float64
	var n int
	for _, r := range rs {
		seen[r.ID] = true
		for label, bound := range paperBands[r.ID] {
			got, ok := r.ModelErrPct[label]
			if !ok {
				return 0, fmt.Errorf("%s: no model error for %q", r.ID, label)
			}
			if got > bound {
				return 0, fmt.Errorf("%s %s: model error %.2f%% outside the %.0f%% band", r.ID, label, got, bound)
			}
		}
		if paperFigures[r.ID] {
			for _, v := range r.ModelErrPct {
				sum += v
				n++
			}
		}
	}
	for id := range paperBands {
		if !seen[id] {
			return 0, fmt.Errorf("experiments output lacks %s", id)
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("experiments output has no paper figure errors")
	}
	return sum / float64(n), nil
}

// reproduction is one run of experiments -json -extensions.
type reproduction struct {
	out    []byte
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	errPct float64
}

func reproduce(bin string) (reproduction, error) {
	var out, stderr bytes.Buffer
	cmd := exec.Command(bin, "-json", "-extensions")
	cmd.Stdout, cmd.Stderr = &out, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r := reproduction{out: out.Bytes(), wall: time.Since(t0)}
	if err != nil {
		return r, fmt.Errorf("experiments: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return r, fmt.Errorf("experiments: no resource usage")
	}
	r.cpu = rusageCPU(ru)
	r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	r.errPct, err = checkPaper(r.out)
	return r, err
}

// runPaper is the paper-suite workload: repeated reproductions of every
// table and figure plus the extensions, by the experiments program as
// built. Its "requests" are reproductions.
func runPaper(cfg runConfig, rep *report) error {
	if cfg.trace {
		return paperTraced(cfg, rep)
	}
	var setups []float64
	for i := 0; i < setupEnvs; i++ {
		t0 := time.Now()
		if _, err := experiments.NewEnv(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), "s")
	rep.note("setup_s", fmt.Sprintf("experiments.NewEnv calibration, median of %d", setupEnvs))

	bin := filepath.Join(cfg.binDir, "experiments")
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var walls, cpus, rss []float64
	var first []byte
	var errPct float64
	for len(walls) < minReproductions || time.Since(start)+time.Duration(median(walls)*1e6) < budget {
		rep.Attempted++
		r, err := reproduce(bin)
		if err == nil && first != nil && !bytes.Equal(r.out, first) {
			err = fmt.Errorf("reproduction %d differs from the first (%d vs %d bytes)", rep.Attempted, len(r.out), len(first))
		}
		if err != nil {
			rep.Failed++
			rep.wrong++
			rep.firstErr(err)
			if r.out == nil || rep.Failed > 1 {
				break
			}
			continue
		}
		if first == nil {
			first, errPct = r.out, r.errPct
		}
		walls = append(walls, ms(r.wall))
		cpus = append(cpus, float64(r.cpu)/float64(time.Microsecond))
		rss = append(rss, r.rssMB)
	}
	if len(walls) == 0 {
		return nil // the failure is in the report
	}
	elapsed := 0.0
	for _, w := range walls {
		elapsed += w / 1e3
	}
	sorted := sortedCopy(walls)
	q := tailPercentile(len(sorted))
	tail := sorted[len(sorted)-1]
	tailNote := fmt.Sprintf("slowest of %d reproductions (too few for a percentile with 10 beyond)", len(sorted))
	if q > 0 {
		tail = nearestRank(sorted, q)
		tailNote = fmt.Sprintf("p%g of %d reproductions", q, len(sorted))
	}
	rep.set("p50_ms", nearestRank(sorted, 50), "ms")
	rep.note("p50_ms", fmt.Sprintf("wall time of one experiments -json -extensions, %d reproductions", len(sorted)))
	rep.note("reproduce_s", "median wall time of one reproduction")
	rep.note("reproduce_cpu_s", "median user+sys CPU of one reproduction")
	rep.set("p99_ms", tail, "ms")
	rep.note("p99_ms", tailNote)
	rep.set("capacity_rps", float64(len(walls))/elapsed, "1/s")
	rep.note("capacity_rps", "reproductions completed per second, back to back")
	rep.set("server_cpu_us_per_req", median(cpus), "us")
	rep.note("server_cpu_us_per_req", "user+sys CPU of one reproduction, median")
	rep.set("server_rss_mb", median(rss), "MB")
	rep.set("reproduce_s", median(walls)/1e3, "s")
	rep.set("reproduce_cpu_s", median(cpus)/1e6, "s")
	rep.note("server_rss_mb", "peak RSS of the experiments process, median")
	rep.setLayer("experiments.paper_err_pct", errPct, "%")
	rep.note("experiments.paper_err_pct", "mean ModelErrPct over figures 1-8; every banded figure within its band")
	return nil
}

// paperTraced times each layer of a reproduction in this process: the
// calibration, each group of drivers run serially on one Env, and the
// same suite fanned out on the runner pool.
func paperTraced(cfg runConfig, rep *report) error {
	tr := cfg.tracer
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	groups := []struct {
		name string
		run  func(env *experiments.Env) ([]experiments.Result, error)
	}{
		{"experiments.tables", func(*experiments.Env) ([]experiments.Result, error) {
			return collect(experiments.Tables12, experiments.Table3, experiments.Table4)
		}},
		{"experiments.cm2", func(env *experiments.Env) ([]experiments.Result, error) {
			return collect(bind(experiments.Figure1, env), bind(experiments.Figure2, env), bind(experiments.Figure3, env))
		}},
		{"experiments.paragon", func(env *experiments.Env) ([]experiments.Result, error) {
			return collect(bind(experiments.Figure4, env), bind(experiments.Figure5, env), bind(experiments.Figure6, env))
		}},
		{"experiments.sor", func(env *experiments.Env) ([]experiments.Result, error) {
			return collect(bind(experiments.Figure7, env), bind(experiments.Figure8, env))
		}},
		{"experiments.ext", experiments.Extensions},
	}
	var speedups []float64
	var first []byte
	for round := uint64(1); round <= 1 || time.Since(start) < budget/2; round++ {
		rep.Attempted++
		span := func(parent int, name string, f func() error) error {
			t0 := time.Now()
			err := f()
			tr.Add(round, parent, name, t0, time.Now())
			return err
		}
		t0 := time.Now()
		root := tr.Add(round, 0, "paper.round", t0, t0)
		var env *experiments.Env
		if err := span(root, "calibrate.env", func() (err error) { env, err = experiments.NewEnv(); return err }); err != nil {
			return err
		}
		var all []experiments.Result
		serialStart := time.Now()
		for _, g := range groups {
			if err := span(root, g.name, func() error {
				rs, err := g.run(env)
				all = append(all, rs...)
				return err
			}); err != nil {
				return err
			}
		}
		serial := time.Since(serialStart)

		var pooled []experiments.Result
		penv, err := experiments.NewEnv()
		if err != nil {
			return err
		}
		penv = penv.WithPool(runner.New(0))
		pstart := time.Now()
		if err := span(root, "runner.pooled", func() error {
			a, err := experiments.All(penv)
			if err != nil {
				return err
			}
			e, err := experiments.Extensions(penv)
			pooled = append(a, e...)
			return err
		}); err != nil {
			return err
		}
		speedups = append(speedups, serial.Seconds()/time.Since(pstart).Seconds())
		tr.SetEnd(root, time.Now())

		out, err := json.Marshal(pooled)
		if err != nil {
			return err
		}
		serialOut, err := json.Marshal(all)
		if err != nil {
			return err
		}
		errPct, err := checkPaper(out)
		switch {
		case err != nil:
		case !bytes.Equal(out, serialOut):
			err = fmt.Errorf("round %d: serial and pooled results differ", round)
		case first != nil && !bytes.Equal(out, first):
			err = fmt.Errorf("round %d: results differ from round 1", round)
		}
		if err != nil {
			rep.Failed++
			rep.wrong++
			rep.firstErr(err)
			break
		}
		if first == nil {
			first = out
			rep.setLayer("experiments.paper_err_pct", errPct, "%")
		}
	}
	spans := tr.Spans()
	self := selfTimes(spans)
	for _, n := range []string{"calibrate.env", "experiments.tables", "experiments.cm2", "experiments.paragon", "experiments.sor", "experiments.ext"} {
		rep.setLayer(n+"_s", median(selfByName(spans, self, n))/1e9, "s")
	}
	rep.setLayer("runner.speedup", median(speedups), "x")
	rep.note("runner.speedup", fmt.Sprintf("serial wall / wall on runner.New(0), median of %d rounds", len(speedups)))
	return nil
}

func bind(f func(*experiments.Env) (experiments.Result, error), env *experiments.Env) func() (experiments.Result, error) {
	return func() (experiments.Result, error) { return f(env) }
}

func collect(fs ...func() (experiments.Result, error)) ([]experiments.Result, error) {
	var out []experiments.Result
	for _, f := range fs {
		r, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
