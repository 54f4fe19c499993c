// Closed loop: the full pipeline a contention-aware scheduler runs.
// A load monitor observes the platform and estimates the contender set
// (no user-supplied descriptors); the model turns the estimate into
// computation and communication slowdown factors; the allocation
// problem is adjusted and re-ranked — reproducing the paper's Tables
// 1–4 flip from live observations instead of known workloads.
package main

import (
	"fmt"
	"log"

	"contention"
)

func main() {
	// Calibrate once (static per platform).
	params := contention.DefaultParagonParams(contention.OneHop)
	cal, err := contention.Calibrate(contention.DefaultCalibrationOptions(params))
	if err != nil {
		log.Fatal(err)
	}

	// A loaded platform: two contenders the scheduler knows nothing
	// about — one CPU-bound, one communicating.
	k := contention.NewKernel()
	defer k.Close()
	sp, err := contention.NewSunParagon(k, params)
	if err != nil {
		log.Fatal(err)
	}
	contention.SpawnCPUHog(sp, "mystery-hog")
	if _, err := contention.SpawnAlternator(sp, contention.AlternatorSpec{
		Name: "mystery-comm", CommFraction: 0.5, MsgWords: 400, Period: 0.1,
	}); err != nil {
		log.Fatal(err)
	}

	// Observe for 30 virtual seconds.
	mon, err := contention.NewMonitor(sp, 0.05, 10000)
	if err != nil {
		log.Fatal(err)
	}
	mon.Start()
	k.RunUntil(30)
	est, err := mon.EstimateWindow(30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("observed: host %.0f%% busy, link %.0f%% busy, ≈%d applications, msgs ≈%d words\n",
		est.HostUtilization*100, est.LinkUtilization*100, est.Apps, est.MeanMsgWords)

	// Estimate → slowdown factors.
	cs := est.Contenders(0)
	comp, err := contention.CompSlowdown(cs, cal.Tables)
	if err != nil {
		log.Fatal(err)
	}
	comm, err := contention.CommSlowdown(cs, cal.Tables)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated slowdowns: computation %.2f, communication %.2f\n\n", comp, comm)

	// Slowdowns → allocation decision for the paper's A/B application.
	problem := contention.PaperExample()
	dedicated, err := problem.Best()
	if err != nil {
		log.Fatal(err)
	}
	adjusted, err := problem.AdjustForLoad(map[contention.Machine]contention.Load{
		"M1": {Comp: comp, Comm: comm},
	})
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := adjusted.Best()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dedicated plan:  %s (makespan %.0f)\n", dedicated.Assignment, dedicated.Makespan)
	fmt.Printf("load-aware plan: %s (makespan %.1f)\n", loaded.Assignment, loaded.Makespan)
	if loaded.Assignment.String() != dedicated.Assignment.String() {
		fmt.Println("→ the observed contention flipped the allocation, as in the paper's §1 example")
	} else {
		fmt.Println("→ the observed contention did not change the allocation")
	}
}
