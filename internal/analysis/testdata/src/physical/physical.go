// Package physical seeds gaugecharge violations: its import path ends
// in "physical", which puts it on the analyzer's hot-path scope.
package physical

import "fix/internal/core"

// evalUnattached calls Eval before any Gauge assignment.
func evalUnattached(env *core.Env) {
	ev := core.NewEvaluator(env)
	defer ev.Close()
	ev.Eval(nil) // want `ev\.Eval before ev\.Gauge is set`
}

// loopUnattached seeds a fixpoint loop before any Gauge assignment.
func loopUnattached(env *core.Env, init *core.Relation) {
	ev := core.NewEvaluator(env)
	defer ev.Close()
	loop := ev.NewFixpointLoop(init) // want `ev\.NewFixpointLoop before ev\.Gauge is set`
	defer loop.Close()
	loop.Step()
}

// loopAttached assigns the gauge first: clean.
func loopAttached(env *core.Env, g *core.MemGauge, init *core.Relation) (int, error) {
	ev := core.NewEvaluator(env)
	defer ev.Close()
	ev.Gauge = g
	loop := ev.NewFixpointLoop(init)
	defer loop.Close()
	return loop.Step()
}

// evalAttached assigns the gauge first: clean.
func evalAttached(env *core.Env, g *core.MemGauge) (*core.Relation, error) {
	ev := core.NewEvaluator(env)
	defer ev.Close()
	ev.Gauge = g
	return ev.Eval(nil)
}
