package experiments

import (
	"context"
	"fmt"

	"contention/internal/apps"
	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/platform"
	"contention/internal/runner"
	"contention/internal/workload"
)

// OffloadDecision exercises the paper's Equation (1) end to end: for a
// sweep of SOR problem sizes under contention on the Sun, the model
// predicts both the front-end execution time (dcomp × comp slowdown)
// and the offload cost (transfer out × comm slowdown + T_p + transfer
// back × comm slowdown), decides where to run, and the decision is
// checked against actual simulated runs of both options. Small problems
// stay on the Sun (transfer overhead dominates); large ones move to the
// Paragon — the crossover the motivating example is about.
func OffloadDecision(env *Env) (Result, error) {
	const nodes = 8
	specs := []workload.AlternatorSpec{
		{Name: "alt40", CommFraction: 0.40, MsgWords: 500, Period: 0.1, Phase: 0.017},
		{Name: "alt25", CommFraction: 0.25, MsgWords: 200, Period: 0.1, Phase: 0.031},
	}
	cs := []core.Contender{
		{CommFraction: 0.40, MsgWords: 500},
		{CommFraction: 0.25, MsgWords: 200},
	}
	compSlow, err := env.Pred.CompSlowdown(cs)
	if err != nil {
		return Result{}, err
	}
	commSlow, err := env.Pred.CommSlowdown(cs)
	if err != nil {
		return Result{}, err
	}
	pred := env.Pred

	r := Result{
		ID:     "offload",
		Title:  "Equation (1) end to end: run SOR on the Sun or offload to the Paragon?",
		XLabel: "M",
		YLabel: "seconds",
	}
	// Per size: the dedicated T_p estimate plus the two actual contended
	// runs, all on private kernels — fanned out on the pool.
	type point struct{ tp, aSun, aOff float64 }
	ms := []int{16, 24, 32, 48, 64, 100, 200, 400}
	pts, err := runner.Map(context.Background(), env.pool(), ms,
		func(_ context.Context, _ int, m int) (point, error) {
			tp, err := estimateTp(env, apps.SORParagonSpec{M: m, Iters: sorIters, Nodes: nodes})
			if err != nil {
				return point{}, err
			}
			aSun, err := sorElapsed(env.ParagonParams, m, specs)
			if err != nil {
				return point{}, err
			}
			aOff, err := offloadRun(env.ParagonParams, m, nodes, specs)
			if err != nil {
				return point{}, err
			}
			return point{tp: tp, aSun: aSun, aOff: aOff}, nil
		})
	if err != nil {
		return Result{}, err
	}
	var xs, predSun, actSun, predOff, actOff []float64
	correct, total := 0, 0
	crossover := 0.0
	for i, m := range ms {
		xs = append(xs, float64(m))
		dcomp := apps.SORWork(m, sorIters)

		// Model: T_sun.
		tSun := dcomp * compSlow
		predSun = append(predSun, tSun)

		// Model: offload = C_to + T_p + C_from.
		sets := apps.SORDataSets(m)
		dTo, err := pred.DedicatedComm(core.HostToBack, sets)
		if err != nil {
			return Result{}, err
		}
		dFrom, err := pred.DedicatedComm(core.BackToHost, sets)
		if err != nil {
			return Result{}, err
		}
		tp := pts[i].tp
		tOff := dTo*commSlow + tp + dFrom*commSlow
		predOff = append(predOff, tOff)

		// Actual runs of both options under the contenders.
		aSun, aOff := pts[i].aSun, pts[i].aOff
		actSun = append(actSun, aSun)
		actOff = append(actOff, aOff)

		// Decision quality: does the model pick the actual winner?
		modelOffloads := core.ShouldOffload(tSun, tp, dTo*commSlow, dFrom*commSlow)
		actualOffloadWins := aOff < aSun
		if modelOffloads == actualOffloadWins {
			correct++
		}
		total++
		if crossover == 0 && actualOffloadWins {
			crossover = float64(m)
		}
	}
	r.Series = []Series{
		{Name: "model sun", X: xs, Y: predSun},
		{Name: "actual sun", X: xs, Y: actSun},
		{Name: "model offload", X: xs, Y: predOff},
		{Name: "actual offload", X: xs, Y: actOff},
	}
	r.ModelErrPct = map[string]float64{
		"sun":     mape(predSun, actSun),
		"offload": mape(predOff, actOff),
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("decision accuracy: %d/%d sizes decided correctly", correct, total),
		fmt.Sprintf("offloading starts to win at M ≈ %.0f", crossover),
		fmt.Sprintf("slowdowns under load: computation %.3f, communication %.3f", compSlow, commSlow))
	return r, nil
}

// estimateTp measures the dedicated Paragon run once (space-shared, so
// contention on the Sun does not change it).
func estimateTp(env *Env, spec apps.SORParagonSpec) (float64, error) {
	k := des.New()
	defer k.Close()
	sp, err := platform.NewSunParagon(k, env.ParagonParams)
	if err != nil {
		return 0, err
	}
	out := -1.0
	var runErr error
	k.Spawn("tp", func(p *des.Proc) {
		out, runErr = apps.RunSORParagon(p, sp, spec)
		k.Stop()
	})
	k.Run()
	if runErr != nil {
		return 0, runErr
	}
	if out < 0 {
		return 0, fmt.Errorf("experiments: T_p run did not finish")
	}
	return out, nil
}

// offloadRun measures the full offload path under contenders: ship the
// matrix out, run on the Paragon, ship the result back.
func offloadRun(params platform.ParagonParams, m, nodes int, specs []workload.AlternatorSpec) (float64, error) {
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
	workload.DrainPort(sp, "data")
	ctl := workload.BurstServer(sp, "result-server", "result")
	elapsed := -1.0
	var runErr error
	k.Spawn("app", func(p *des.Proc) {
		p.Delay(burstWarmup)
		start := p.Now()
		// Ship the matrix: M rows of M words.
		for i := 0; i < m; i++ {
			sp.SendToParagon(p, "data", m)
		}
		// Execute on the MPP.
		if _, err := apps.RunSORParagon(p, sp, apps.SORParagonSpec{M: m, Iters: sorIters, Nodes: nodes}); err != nil {
			runErr = err
			k.Stop()
			return
		}
		// Ship the solution back.
		elapsed = workload.BurstFromParagon(p, sp, ctl, "result", m, m)
		elapsed = p.Now() - start
		k.Stop()
	})
	k.Run()
	if runErr != nil {
		return 0, runErr
	}
	if elapsed < 0 {
		return 0, fmt.Errorf("experiments: offload run did not finish")
	}
	return elapsed, nil
}
