// Package closecase seeds closecheck violations (and their clean
// counterparts). Every `want` comment is matched against the analyzer
// output by internal/analysis/analysistest.
package closecase

import (
	"errors"

	"fix/internal/core"
	"fix/repro"
)

var errStep = errors.New("step failed")

func step() error { return nil }

// leakNever acquires and never closes on any path.
func leakNever() {
	acc := core.NewAccumulator(nil) // want `acc is never closed`
	acc.Add(1)
}

// leakOnError closes on the happy path but not on the early error
// return.
func leakOnError() error {
	acc := core.NewAccumulator(nil)
	if err := step(); err != nil {
		return err // want `acc is not closed on this return path`
	}
	acc.Close()
	return nil
}

// leakLoop steps a fixpoint loop and never closes it: X and the shuffle
// filter keep their spill runs and gauge charges.
func leakLoop(ev *core.Evaluator, init *core.Relation) {
	loop := ev.NewFixpointLoop(init) // want `loop is never closed`
	loop.Step()
}

// loopClosed is the clean counterpart.
func loopClosed(ev *core.Evaluator, init *core.Relation) error {
	loop := ev.NewFixpointLoop(init)
	defer loop.Close()
	_, err := loop.Step()
	return err
}

// dropResult discards the constructor result outright.
func dropResult() {
	core.NewAccumulator(nil) // want `result of NewAccumulator is dropped without Close`
}

// watchRenderLeak is a cursor opened, then abandoned by an early return
// on a downstream failure: the shape of a render step that fails after
// its query succeeded.
func watchRenderLeak(e *repro.Engine) error {
	rows, err := e.Query("watch")
	if err != nil {
		return err
	}
	if rows.Err() != nil {
		return repro.ErrRender // want `rows is not closed on this return path`
	}
	return rows.Close()
}

// closedByDefer is the idiomatic clean shape: constructor error guard,
// then defer Close.
func closedByDefer(e *repro.Engine) error {
	rows, err := e.Query("q")
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
	}
	return rows.Err()
}

// consumedByCollect releases through the drain-and-close consume API.
func consumedByCollect(e *repro.Engine) (int, error) {
	rows, err := e.Query("q")
	if err != nil {
		return 0, err
	}
	n, err := rows.Collect()
	return n, err
}

// handedOff escapes to the caller, which takes ownership.
func handedOff(e *repro.Engine) (*repro.Rows, error) {
	rows, err := e.Query("q")
	return rows, err
}
