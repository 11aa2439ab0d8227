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

// evalAttached assigns the gauge first: clean.
func evalAttached(env *core.Env, g *core.MemGauge) (*core.Relation, error) {
	ev := core.NewEvaluator(env)
	defer ev.Close()
	ev.Gauge = g
	return ev.Eval(nil)
}
