// Quickstart: calibrate the simulated Sun/Paragon platform once, then
// predict the cost of a communication burst under contention and check
// the prediction against an actual (simulated) run — the core loop a
// contention-aware scheduler performs.
package main

import (
	"fmt"
	"log"
	"math"

	"contention"
)

func main() {
	// 1. Calibrate the platform (static, once per platform): piecewise
	// α/β per direction plus the delay tables.
	params := contention.DefaultParagonParams(contention.OneHop)
	cal, err := contention.Calibrate(contention.DefaultCalibrationOptions(params))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated %s: threshold %d words, α=%.4gs β=%.4g words/s\n",
		cal.Platform, cal.ToBack.Threshold, cal.ToBack.Small.Alpha, cal.ToBack.Small.Beta)

	// 2. Describe the current workload: two extra applications on the
	// front-end, communicating 25% and 76% of the time with 200-word
	// messages (the paper's Figure 5 scenario).
	contenders := []contention.Contender{
		{CommFraction: 0.25, MsgWords: 200},
		{CommFraction: 0.76, MsgWords: 200},
	}

	// 3. Predict: dedicated cost × slowdown factor.
	pred, err := contention.NewPredictor(cal)
	if err != nil {
		log.Fatal(err)
	}
	sets := []contention.DataSet{{N: 1000, Words: 512}}
	dedicated, err := pred.DedicatedComm(contention.HostToBack, sets)
	if err != nil {
		log.Fatal(err)
	}
	predicted, err := pred.PredictComm(contention.HostToBack, sets, contenders)
	if err != nil {
		log.Fatal(err)
	}
	slowdown, err := contention.CommSlowdown(contenders, cal.Tables)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dedicated dcomm = %.3fs, slowdown = %.3f, predicted = %.3fs\n",
		dedicated, slowdown, predicted)

	// 4. Verify against an actual run on the simulated platform with
	// the same contenders emulated.
	k := contention.NewKernel()
	defer k.Close()
	sp, err := contention.NewSunParagon(k, params)
	if err != nil {
		log.Fatal(err)
	}
	specs := []contention.AlternatorSpec{
		{Name: "alt25", CommFraction: 0.25, MsgWords: 200, Period: 0.1, Phase: 0.017, Direction: contention.SunToParagon},
		{Name: "alt76", CommFraction: 0.76, MsgWords: 200, Period: 0.1, Phase: 0.031, Direction: contention.SunToParagon},
	}
	for _, s := range specs {
		if _, err := contention.SpawnAlternator(sp, s); err != nil {
			log.Fatal(err)
		}
	}
	contention.SpawnPingEcho(sp, "bench")
	actual := -1.0
	k.Spawn("bench", func(p *contention.Proc) {
		p.Delay(0.5) // let contenders reach steady state
		var err error
		actual, err = contention.PingPongBurst(p, sp, "bench", 1000, 512)
		if err != nil {
			log.Fatal(err)
		}
		k.Stop()
	})
	k.Run()

	errPct := 100 * math.Abs(predicted-actual) / actual
	fmt.Printf("actual (simulated) = %.3fs, model error = %.1f%%\n", actual, errPct)
	fmt.Println("the paper reports ≈12% average error for this experiment")
}
