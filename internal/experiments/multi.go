package experiments

import (
	"fmt"

	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/platform"
	"contention/internal/workload"
)

// MultiMachine validates the more-than-two-machines generalization: a
// front-end drives two back-end machines over separate links. The same
// two contenders are placed either both on the target link ("same") or
// split across the links ("split"); splitting relieves the target wire,
// and the per-link slowdown model predicts each placement with the
// two-machine model's accuracy.
func MultiMachine(env *Env) (Result, error) {
	const count = 1000
	a := core.Contender{CommFraction: 0.76, MsgWords: 200}
	b := core.Contender{CommFraction: 0.66, MsgWords: 800}

	splitSlow, err := core.CommSlowdownMulti(0, []core.MultiContender{
		{Contender: a, Link: 0}, {Contender: b, Link: 1},
	}, env.Cal.Tables)
	if err != nil {
		return Result{}, err
	}
	sameSlow, err := core.CommSlowdownMulti(0, []core.MultiContender{
		{Contender: a, Link: 0}, {Contender: b, Link: 0},
	}, env.Cal.Tables)
	if err != nil {
		return Result{}, err
	}
	pred, err := core.NewPredictor(env.Cal)
	if err != nil {
		return Result{}, err
	}

	r := Result{
		ID:     "multimachine",
		Title:  "Three-machine platform: contender placement across links",
		XLabel: "words/msg",
		YLabel: "seconds",
	}
	var xs, actSame, actSplit, predSame, predSplit []float64
	for _, w := range []int{64, 256, 512, 1024, 2048} {
		xs = append(xs, float64(w))
		dcomm, err := pred.DedicatedComm(core.HostToBack, []core.DataSet{{N: count, Words: w}})
		if err != nil {
			return Result{}, err
		}
		predSplit = append(predSplit, dcomm*splitSlow)
		predSame = append(predSame, dcomm*sameSlow)
		as, err := multiBurst(env.ParagonParams, count, w, false)
		if err != nil {
			return Result{}, err
		}
		actSplit = append(actSplit, as)
		am, err := multiBurst(env.ParagonParams, count, w, true)
		if err != nil {
			return Result{}, err
		}
		actSame = append(actSame, am)
	}
	r.Series = []Series{
		{Name: "actual split", X: xs, Y: actSplit},
		{Name: "model split", X: xs, Y: predSplit},
		{Name: "actual same", X: xs, Y: actSame},
		{Name: "model same", X: xs, Y: predSame},
	}
	r.ModelErrPct = map[string]float64{
		"split": mape(predSplit, actSplit),
		"same":  mape(predSame, actSame),
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("slowdown on link 0: split %.3f, same-link %.3f", splitSlow, sameSlow),
		"splitting the contenders across links relieves the target wire but not the shared CPU",
		"§1: \"generalization of these results to more than two machines is straightforward\"")
	return r, nil
}

// multiBurst measures a burst on leg 0 of a two-back-end platform with
// two contenders, either both on leg 0 or split across legs.
func multiBurst(params platform.ParagonParams, count, words int, sameLink bool) (float64, error) {
	k := des.New()
	defer k.Close()
	legs, err := platform.NewSunMultiParagon(k, params, 2)
	if err != nil {
		return 0, err
	}
	legB := legs[1]
	if sameLink {
		legB = legs[0]
	}
	if _, err := workload.SpawnAlternator(legs[0], workload.AlternatorSpec{
		Name: "contA", CommFraction: 0.76, MsgWords: 200, Period: 0.1, Phase: 0.017,
	}); err != nil {
		return 0, err
	}
	if _, err := workload.SpawnAlternator(legB, workload.AlternatorSpec{
		Name: "contB", CommFraction: 0.66, MsgWords: 800, Period: 0.1, Phase: 0.031,
	}); err != nil {
		return 0, err
	}
	workload.SpawnPingEcho(legs[0], "bench")
	elapsed := -1.0
	k.Spawn("bench", func(p *des.Proc) {
		p.Delay(burstWarmup)
		elapsed = workload.PingPongBurst(p, legs[0], "bench", count, words)
		k.Stop()
	})
	k.Run()
	if elapsed < 0 {
		return 0, fmt.Errorf("experiments: multi-machine burst did not finish")
	}
	return elapsed, nil
}
