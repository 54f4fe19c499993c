// Package calibrate is the paper's "system test suite": it measures the
// system-dependent model parameters once per platform by running
// benchmarks against the (simulated) machine pair — exactly the
// procedure the paper runs against the real Sun/CM2 and Sun/Paragon.
//
//   - α and β per direction come from ping-pong bursts over a grid of
//     message sizes, fitted by linear regression; the piecewise
//     threshold is found by exhaustive search (package stats).
//   - delay^i_comp is the extra delay i CPU-bound generators impose on
//     the ping-pong benchmark.
//   - delay^i_comm is the average of the delays imposed on the
//     ping-pong benchmark by i generators streaming one-word messages
//     Sun→Paragon and Paragon→Sun.
//   - delay^{i,j}_comm is the delay imposed on a CPU-bound application
//     by i generators streaming j-word messages, averaged over both
//     directions, for j in a small calibrated grid (the paper uses
//     {1, 500, 1000}).
//
// These values are static per platform; the run-time slowdown
// calculation only combines them with the current workload.
package calibrate

import (
	"errors"
	"fmt"

	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/platform"
	"contention/internal/stats"
	"contention/internal/workload"
)

// Options controls the calibration suite.
type Options struct {
	// Params is the platform under calibration.
	Params platform.ParagonParams
	// BurstCount is the number of messages per ping-pong burst
	// (the paper uses 1000; smaller values speed the suite up).
	BurstCount int
	// Sizes is the message-size grid for the α/β fit.
	Sizes []int
	// MaxContenders bounds the delay tables (entries for 1..MaxContenders).
	MaxContenders int
	// JGrid lists the message sizes for delay^{i,j} columns.
	JGrid []int
	// ProbeWords is the message size of the ping-pong probe used for
	// the delay measurements.
	ProbeWords int
	// ProbeWork is the CPU-bound probe duration (dedicated seconds)
	// used for delay^{i,j}.
	ProbeWork float64
	// Warmup lets contenders reach steady state before measuring.
	Warmup float64

	// Repeats is the number of measurements taken per point, each with
	// a deterministically jittered probe phase; 0 or 1 keeps the
	// single-shot behavior. The robust aggregation below only has
	// teeth when Repeats > 1.
	Repeats int
	// TrimFraction is trimmed per tail when aggregating repeated
	// measurements (0 = plain mean).
	TrimFraction float64
	// OutlierK rejects samples more than K MAD-equivalent standard
	// deviations from the median before aggregation (≤ 0 disables).
	OutlierK float64
	// BootstrapResamples sizes the bootstrap behind each confidence
	// interval (< 2 disables interval estimation).
	BootstrapResamples int
	// Confidence is the two-sided bootstrap confidence level.
	Confidence float64
	// Seed drives the bootstrap resampler (deterministic).
	Seed int64
}

// DefaultOptions returns the settings used throughout the experiments.
func DefaultOptions(params platform.ParagonParams) Options {
	return Options{
		Params:        params,
		BurstCount:    200,
		Sizes:         []int{16, 32, 64, 128, 256, 384, 512, 640, 768, 896, 1024, 1280, 1536, 2048, 2560, 3072, 4096},
		MaxContenders: 4,
		JGrid:         []int{1, 500, 1000},
		ProbeWords:    256,
		ProbeWork:     2.0,
		Warmup:        0.5,

		Repeats:            1,
		TrimFraction:       0.2,
		OutlierK:           3.5,
		BootstrapResamples: 200,
		Confidence:         0.95,
		Seed:               1,
	}
}

func (o Options) validate() error {
	if o.BurstCount < 2 {
		return fmt.Errorf("calibrate: burst count %d too small", o.BurstCount)
	}
	if len(o.Sizes) < 4 {
		return errors.New("calibrate: need at least 4 message sizes for the piecewise fit")
	}
	if o.MaxContenders < 1 {
		return fmt.Errorf("calibrate: max contenders %d must be ≥ 1", o.MaxContenders)
	}
	if len(o.JGrid) == 0 {
		return errors.New("calibrate: empty j grid")
	}
	if o.ProbeWords < 1 || o.ProbeWork <= 0 {
		return fmt.Errorf("calibrate: invalid probe (%d words, %v s)", o.ProbeWords, o.ProbeWork)
	}
	if o.Warmup < 0 {
		return fmt.Errorf("calibrate: negative warmup %v", o.Warmup)
	}
	if o.Repeats < 0 {
		return fmt.Errorf("calibrate: negative repeats %d", o.Repeats)
	}
	if o.TrimFraction < 0 || o.TrimFraction >= 0.5 {
		return fmt.Errorf("calibrate: trim fraction %v out of [0,0.5)", o.TrimFraction)
	}
	if o.Confidence < 0 || o.Confidence >= 1 {
		return fmt.Errorf("calibrate: confidence %v out of [0,1)", o.Confidence)
	}
	return nil
}

func (o Options) newPlatform() (*des.Kernel, *platform.SunParagon, error) {
	k := des.New()
	sp, err := platform.NewSunParagon(k, o.Params)
	if err != nil {
		k.Close()
		return nil, nil, err
	}
	return k, sp, nil
}

// measureBurst runs one ping-pong burst of the given direction and size
// under the contenders installed by setup, returning per-message cost.
func (o Options) measureBurst(dir workload.Direction, words int, setup func(*platform.SunParagon)) (float64, error) {
	return o.measureBurstWarm(dir, words, setup, o.Warmup)
}

// measureBurstWarm is measureBurst with an explicit warmup, which the
// robust pipeline jitters across repeats to decorrelate the probe's
// phase from the contenders' deterministic cycles.
func (o Options) measureBurstWarm(dir workload.Direction, words int, setup func(*platform.SunParagon), warmup float64) (float64, error) {
	k, sp, err := o.newPlatform()
	if err != nil {
		return 0, err
	}
	defer k.Close()
	if setup != nil {
		setup(sp)
	}
	port := "probe"
	var elapsed float64
	switch dir {
	case workload.SunToParagon:
		workload.SpawnPingEcho(sp, port)
		k.Spawn("probe", func(p *des.Proc) {
			if warmup > 0 {
				p.Delay(warmup)
			}
			elapsed = workload.PingPongBurst(p, sp, port, o.BurstCount, words)
			k.Stop() // contenders run forever; end the run with the probe
		})
	case workload.ParagonToSun:
		ctl := workload.BurstServer(sp, "server", port)
		k.Spawn("probe", func(p *des.Proc) {
			if warmup > 0 {
				p.Delay(warmup)
			}
			elapsed = workload.BurstFromParagon(p, sp, ctl, port, o.BurstCount, words)
			k.Stop()
		})
	default:
		return 0, fmt.Errorf("calibrate: unknown direction %d", int(dir))
	}
	k.Run()
	if elapsed <= 0 {
		return 0, fmt.Errorf("calibrate: probe did not finish (dir %v, %d words)", dir, words)
	}
	return elapsed / float64(o.BurstCount), nil
}

// measureCompute runs a CPU-bound probe of ProbeWork dedicated seconds
// under the contenders installed by setup, returning elapsed time.
func (o Options) measureCompute(setup func(*platform.SunParagon)) (float64, error) {
	return o.measureComputeWarm(setup, o.Warmup)
}

// measureComputeWarm is measureCompute with an explicit warmup.
func (o Options) measureComputeWarm(setup func(*platform.SunParagon), warmup float64) (float64, error) {
	k, sp, err := o.newPlatform()
	if err != nil {
		return 0, err
	}
	defer k.Close()
	if setup != nil {
		setup(sp)
	}
	var elapsed float64
	k.Spawn("probe", func(p *des.Proc) {
		if warmup > 0 {
			p.Delay(warmup)
		}
		start := p.Now()
		sp.Host.Compute(p, o.ProbeWork)
		elapsed = p.Now() - start
		k.Stop()
	})
	k.Run()
	if elapsed <= 0 {
		return 0, errors.New("calibrate: compute probe did not finish")
	}
	return elapsed, nil
}

// FitCommModel measures dedicated per-message costs across the size
// grid for one direction and fits the piecewise-linear model.
func (o Options) FitCommModel(dir workload.Direction) (core.CommModel, stats.PiecewiseFit, error) {
	xs := make([]float64, 0, len(o.Sizes))
	ys := make([]float64, 0, len(o.Sizes))
	for _, words := range o.Sizes {
		cost, err := o.measureBurst(dir, words, nil)
		if err != nil {
			return core.CommModel{}, stats.PiecewiseFit{}, err
		}
		xs = append(xs, float64(words))
		ys = append(ys, cost)
	}
	fit, err := stats.FitPiecewise(xs, ys)
	if err != nil {
		return core.CommModel{}, stats.PiecewiseFit{}, err
	}
	model, err := modelFromFit(fit)
	return model, fit, err
}

func modelFromFit(fit stats.PiecewiseFit) (core.CommModel, error) {
	if fit.Small.Slope <= 0 || fit.Large.Slope <= 0 {
		return core.CommModel{}, fmt.Errorf("calibrate: non-positive fitted slope (%v/%v)", fit.Small.Slope, fit.Large.Slope)
	}
	clampAlpha := func(a float64) float64 {
		if a < 0 {
			return 0
		}
		return a
	}
	return core.CommModel{
		Threshold: int(fit.Threshold),
		Small:     core.CommPiece{Alpha: clampAlpha(fit.Small.Intercept), Beta: 1 / fit.Small.Slope},
		Large:     core.CommPiece{Alpha: clampAlpha(fit.Large.Intercept), Beta: 1 / fit.Large.Slope},
	}, nil
}

// spawnStreamers installs i generators that communicate continuously
// (comm fraction 1) with j-word messages in the given direction,
// phase-staggered deterministically.
func spawnStreamers(sp *platform.SunParagon, i, j int, dir workload.Direction) {
	for g := 0; g < i; g++ {
		spec := workload.AlternatorSpec{
			Name:         fmt.Sprintf("gen%d", g),
			CommFraction: 1,
			MsgWords:     j,
			Period:       0.05,
			Phase:        0.013 * float64(g+1),
			Direction:    dir,
		}
		if _, err := workload.SpawnAlternator(sp, spec); err != nil {
			panic(err) // specs are constructed here; invalid ones are bugs
		}
	}
}

// spawnHogs installs i CPU-bound generators.
func spawnHogs(sp *platform.SunParagon, i int) {
	for g := 0; g < i; g++ {
		workload.SpawnCPUHog(sp, fmt.Sprintf("hog%d", g))
	}
}

// MeasureDelayTables runs the contention probes and assembles the
// paper's three delay tables.
func (o Options) MeasureDelayTables() (core.DelayTables, error) {
	dedicated, err := o.measureBurst(workload.SunToParagon, o.ProbeWords, nil)
	if err != nil {
		return core.DelayTables{}, err
	}
	dedicatedComp, err := o.measureCompute(nil)
	if err != nil {
		return core.DelayTables{}, err
	}

	tables := core.DelayTables{CommOnComp: map[int][]float64{}}
	for i := 1; i <= o.MaxContenders; i++ {
		i := i

		// delay^i_comp: CPU-bound generators vs the ping-pong probe.
		contended, err := o.measureBurst(workload.SunToParagon, o.ProbeWords, func(sp *platform.SunParagon) {
			spawnHogs(sp, i)
		})
		if err != nil {
			return core.DelayTables{}, err
		}
		tables.CompOnComm = append(tables.CompOnComm, delayOf(contended, dedicated))

		// delay^i_comm: one-word streamers, both directions, averaged.
		toBack, err := o.measureBurst(workload.SunToParagon, o.ProbeWords, func(sp *platform.SunParagon) {
			spawnStreamers(sp, i, 1, workload.SunToParagon)
		})
		if err != nil {
			return core.DelayTables{}, err
		}
		toHost, err := o.measureBurst(workload.SunToParagon, o.ProbeWords, func(sp *platform.SunParagon) {
			spawnStreamers(sp, i, 1, workload.ParagonToSun)
		})
		if err != nil {
			return core.DelayTables{}, err
		}
		avg := (delayOf(toBack, dedicated) + delayOf(toHost, dedicated)) / 2
		tables.CommOnComm = append(tables.CommOnComm, avg)
	}

	// delay^{i,j}_comm: streamers vs the CPU-bound probe.
	for _, j := range o.JGrid {
		col := make([]float64, 0, o.MaxContenders)
		for i := 1; i <= o.MaxContenders; i++ {
			toBack, err := o.measureCompute(func(sp *platform.SunParagon) {
				spawnStreamers(sp, i, j, workload.SunToParagon)
			})
			if err != nil {
				return core.DelayTables{}, err
			}
			toHost, err := o.measureCompute(func(sp *platform.SunParagon) {
				spawnStreamers(sp, i, j, workload.ParagonToSun)
			})
			if err != nil {
				return core.DelayTables{}, err
			}
			avg := (delayOf(toBack, dedicatedComp) + delayOf(toHost, dedicatedComp)) / 2
			col = append(col, avg)
		}
		tables.CommOnComp[j] = col
	}
	return tables, nil
}

// delayOf converts a contended/dedicated pair into the paper's delay
// term: the extra cost as a fraction of the dedicated cost, floored at
// zero to absorb measurement jitter.
func delayOf(contended, dedicated float64) float64 {
	d := contended/dedicated - 1
	if d < 0 {
		return 0
	}
	return d
}

// Run executes the full suite and returns a ready-to-use calibration.
// It is RunRobust without the confidence annotations; with the default
// Repeats = 1 it reproduces the single-shot suite exactly.
func Run(opts Options) (core.Calibration, error) {
	cal, _, err := RunRobust(opts)
	return cal, err
}
