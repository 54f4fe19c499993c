// Gaussian elimination on the CM2 — the paper's Figure 3 scenario. The
// example solves a real system with the Gaussian-elimination kernel,
// then runs its CM2 profile on the simulated Sun/CM2 platform with and
// without CPU-bound contenders and compares the measured times against
// the execution law T = max(dcomp + didle, dserial × (p+1)).
package main

import (
	"fmt"
	"log"
	"math"

	"contention"
)

func run(m, hogs int) (elapsed, busy, idle float64) {
	k := contention.NewKernel()
	defer k.Close()
	plat, err := contention.NewSunCM2(k, contention.DefaultCM2Params())
	if err != nil {
		log.Fatal(err)
	}
	plat.SpawnCPUHogs(hogs)
	prog := contention.GaussCM2Program(m)
	k.Spawn("gauss", func(p *contention.Proc) {
		elapsed, busy, idle = contention.RunCM2(p, plat, prog)
		k.Stop()
	})
	k.Run()
	return elapsed, busy, idle
}

func main() {
	// The real kernel first: solve a 12×12 system.
	a, b := contention.MakeDiagonallyDominant(12)
	x, err := contention.GaussSolve(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Gaussian elimination solved a 12×12 system: x[0]=%.3f … x[11]=%.3f\n\n", x[0], x[11])

	fmt.Println("Gaussian elimination on the simulated Sun/CM2 (p = 3 CPU-bound contenders):")
	fmt.Printf("%6s  %12s  %12s  %12s  %9s\n", "M", "dedicated", "model p=3", "actual p=3", "err")
	for _, m := range []int{50, 100, 150, 200, 300, 400} {
		prog := contention.GaussCM2Program(m)
		dedicated, busy, idle := run(m, 0)
		model, err := contention.CM2ExecTime(busy, idle, prog.TotalSerial(), 3)
		if err != nil {
			log.Fatal(err)
		}
		actual, _, _ := run(m, 3)
		errPct := 100 * math.Abs(model-actual) / actual
		fmt.Printf("%6d  %12.4f  %12.4f  %12.4f  %8.1f%%\n", m, dedicated, model, actual, errPct)
	}
	fmt.Println("\nbelow M ≈ 200 the serial part × (p+1) dominates (contention hurts);")
	fmt.Println("above it the CM2 is the bottleneck and the contenders stop mattering,")
	fmt.Println("matching the paper's Figure 3 crossover")
}
