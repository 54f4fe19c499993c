package experiments

import (
	"context"
	"fmt"

	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/platform"
	"contention/internal/runner"
	"contention/internal/workload"
)

// burstWarmup lets contenders reach steady state before a measurement.
const burstWarmup = 0.5

// burstElapsed measures one burst (count messages of words each) in the
// given direction on a fresh platform with the given contenders.
func burstElapsed(params platform.ParagonParams, dir workload.Direction, count, words int, specs []workload.AlternatorSpec) (float64, error) {
	k := des.New()
	defer k.Close()
	sp, err := platform.NewSunParagon(k, params)
	if err != nil {
		return 0, err
	}
	for _, s := range specs {
		if _, err := workload.SpawnAlternator(sp, s); err != nil {
			return 0, err
		}
	}
	warmup := burstWarmup
	if len(specs) == 0 {
		warmup = 0
	}
	elapsed := -1.0
	const port = "bench"
	switch dir {
	case workload.SunToParagon:
		workload.SpawnPingEcho(sp, port)
		k.Spawn("bench", func(p *des.Proc) {
			if warmup > 0 {
				p.Delay(warmup)
			}
			elapsed = workload.PingPongBurst(p, sp, port, count, words)
			k.Stop()
		})
	case workload.ParagonToSun:
		ctl := workload.BurstServer(sp, "server", port)
		k.Spawn("bench", func(p *des.Proc) {
			if warmup > 0 {
				p.Delay(warmup)
			}
			elapsed = workload.BurstFromParagon(p, sp, ctl, port, count, words)
			k.Stop()
		})
	default:
		return 0, fmt.Errorf("experiments: unknown direction %d", int(dir))
	}
	k.Run()
	if elapsed < 0 {
		return 0, fmt.Errorf("experiments: burst (dir %v, %d×%d words) did not finish", dir, count, words)
	}
	return elapsed, nil
}

// figure4Sizes is the message-size sweep of the dedicated-burst figure.
var figure4Sizes = []int{16, 64, 128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096}

// Figure4 reproduces the dedicated communication measurement: time to
// send bursts of 1000 equal-sized messages to and from the Paragon in
// both communication modes (1-HOP and 2-HOPS). The curves are piecewise
// linear with the knee at the 1024-word MTU.
func Figure4(env *Env) (Result, error) {
	const count = 1000
	r := Result{
		ID:     "figure4",
		Title:  "Dedicated 1000-message bursts to/from the Paragon, 1-HOP vs 2-HOPS",
		XLabel: "words/msg",
		YLabel: "seconds",
	}
	var xs []float64
	for _, w := range figure4Sizes {
		xs = append(xs, float64(w))
	}
	// Flatten the (mode, direction, size) grid into independent burst
	// simulations and fan them out; series reassemble by index.
	type cell struct {
		mode platform.HopMode
		dir  workload.Direction
		w    int
	}
	var cells []cell
	for _, mode := range []platform.HopMode{platform.OneHop, platform.TwoHops} {
		for _, dir := range []workload.Direction{workload.SunToParagon, workload.ParagonToSun} {
			for _, w := range figure4Sizes {
				cells = append(cells, cell{mode: mode, dir: dir, w: w})
			}
		}
	}
	ys, err := runner.Map(context.Background(), env.pool(), cells,
		func(_ context.Context, _ int, c cell) (float64, error) {
			return burstElapsed(platform.DefaultParagonParams(c.mode), c.dir, count, c.w, nil)
		})
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < len(cells); i += len(figure4Sizes) {
		c := cells[i]
		r.Series = append(r.Series, Series{
			Name: fmt.Sprintf("%v %v", c.dir, c.mode),
			X:    xs,
			Y:    ys[i : i+len(figure4Sizes)],
		})
	}
	r.Notes = append(r.Notes,
		"piecewise linear in message size; knee at the 1024-word MTU (the paper's threshold)",
		"1-HOP and 2-HOPS behave very similarly (2-HOPS adds the NX hop latency)")
	return r, nil
}

// figure56Contenders is the paper's Figure 5/6 workload: two extra
// applications on the Sun alternating computation and communication,
// communicating 25% and 76% of the time with 200-word messages.
func figure56Contenders() ([]workload.AlternatorSpec, []core.Contender) {
	specs := []workload.AlternatorSpec{
		{Name: "alt25", CommFraction: 0.25, MsgWords: 200, Period: 0.1, Phase: 0.017, Direction: workload.SunToParagon},
		{Name: "alt76", CommFraction: 0.76, MsgWords: 200, Period: 0.1, Phase: 0.031, Direction: workload.SunToParagon},
	}
	cs := []core.Contender{
		{CommFraction: 0.25, MsgWords: 200},
		{CommFraction: 0.76, MsgWords: 200},
	}
	return specs, cs
}

// figure56Sizes is the burst-size sweep of Figures 5 and 6.
var figure56Sizes = []int{16, 64, 128, 256, 512, 768, 1024, 1536, 2048}

func burstFigure(env *Env, id, title string, dir workload.Direction, modelDir core.Direction, paperErr float64) (Result, error) {
	const count = 1000
	specs, cs := figure56Contenders()
	slowdown, err := env.Pred.CommSlowdown(cs)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		ID:          id,
		Title:       title,
		XLabel:      "words/msg",
		YLabel:      "seconds",
		PaperErrPct: paperErr,
	}
	// Model sweep: the batched path evaluates the slowdown mixture once
	// for the whole message-size grid.
	var xs []float64
	batches := make([][]core.DataSet, 0, len(figure56Sizes))
	for _, w := range figure56Sizes {
		xs = append(xs, float64(w))
		batches = append(batches, []core.DataSet{{N: count, Words: w}})
	}
	modeled, err := env.Pred.PredictCommBatch(modelDir, batches, cs)
	if err != nil {
		return Result{}, err
	}
	// Measured sweep: a dedicated and a contended burst per size, fanned
	// out on the pool.
	type point struct{ ded, act float64 }
	pts, err := runner.Map(context.Background(), env.pool(), figure56Sizes,
		func(_ context.Context, _ int, w int) (point, error) {
			ded, err := burstElapsed(env.ParagonParams, dir, count, w, nil)
			if err != nil {
				return point{}, err
			}
			act, err := burstElapsed(env.ParagonParams, dir, count, w, specs)
			if err != nil {
				return point{}, err
			}
			return point{ded: ded, act: act}, nil
		})
	if err != nil {
		return Result{}, err
	}
	var dedicated, actual []float64
	for _, pt := range pts {
		dedicated = append(dedicated, pt.ded)
		actual = append(actual, pt.act)
	}
	r.Series = []Series{
		{Name: "dedicated", X: xs, Y: dedicated},
		{Name: "modeled", X: xs, Y: modeled},
		{Name: "actual", X: xs, Y: actual},
	}
	r.ModelErrPct = map[string]float64{"contended": mape(modeled, actual)}
	r.Notes = append(r.Notes,
		fmt.Sprintf("slowdown factor = %.3f (pcomp/pcomm mixture over the delay tables)", slowdown),
		"contenders: 25%% and 76%% communication, 200-word messages")
	return r, nil
}

// Figure5 reproduces the contended Sun→Paragon burst experiment
// (paper-quoted average error ≈12%).
func Figure5(env *Env) (Result, error) {
	return burstFigure(env, "figure5",
		"1000-message bursts Sun→Paragon under two alternating contenders",
		workload.SunToParagon, core.HostToBack, 12)
}

// Figure6 reproduces the contended Paragon→Sun burst experiment
// (paper-quoted average error ≈14%).
func Figure6(env *Env) (Result, error) {
	return burstFigure(env, "figure6",
		"1000-message bursts Paragon→Sun under two alternating contenders",
		workload.ParagonToSun, core.BackToHost, 14)
}
