package main

import (
	"fmt"
	"math"

	"contention/internal/core"
	"contention/internal/serve"
)

// relTol is the relative bound DESIGN allows between a served answer
// and the reference evaluation of the same request.
const relTol = 1e-3

// checker verifies served answers against the reference evaluation: a
// plain Predictor over the calibration the daemons serve by default.
type checker struct {
	pred *core.Predictor
}

func newChecker() *checker {
	return &checker{pred: core.NewPredictorLenient(serve.SyntheticCalibration())}
}

// check compares one served answer with serve.Direct(exact, req, false).
// A value outside relTol or a degraded flag the reference does not
// raise is a wrong answer.
func (c *checker) check(req *serve.Request, got serve.Response) error {
	want, err := serve.Direct(c.pred, req, false)
	if err != nil {
		return err
	}
	return compare(want, got)
}

func compare(want, got serve.Response) error {
	if got.Degraded != want.Degraded {
		return fmt.Errorf("degraded=%v, reference says %v", got.Degraded, want.Degraded)
	}
	if d := math.Abs(got.Value - want.Value); d > relTol*math.Abs(want.Value) || math.IsNaN(got.Value) {
		return fmt.Errorf("value %v, reference %v (rel err %.3g)", got.Value, want.Value, d/math.Abs(want.Value))
	}
	return nil
}
