// Package core is a miniature stand-in for the engine's core package:
// just enough surface for the analyzer fixtures to typecheck. The
// analyzers match tracked types and constructors by package-path
// suffix, so this stub under the fixture module exercises the same
// recognition paths as the real repro/internal/core.
package core

// Relation is an opaque row container.
type Relation struct{}

// MemGauge is the budget the real constructors charge rows against.
type MemGauge struct{}

// Env is the evaluator environment.
type Env struct{}

// Accumulator mirrors the tracked accumulator resource.
type Accumulator struct{}

// NewAccumulator constructs an accumulator charged to g; closecheck
// tracks its result.
func NewAccumulator(g *MemGauge) *Accumulator { return &Accumulator{} }

// Add inserts one row.
func (a *Accumulator) Add(v int) {}

// Close releases the accumulator.
func (a *Accumulator) Close() {}

// Evaluator mirrors the tracked evaluator, whose Gauge field must be
// assigned before the first Eval.
type Evaluator struct {
	Gauge *MemGauge
}

// NewEvaluator constructs an evaluator with no gauge attached.
func NewEvaluator(env *Env) *Evaluator { return &Evaluator{} }

// Eval materializes rows; gaugecharge requires Gauge to be set first.
func (ev *Evaluator) Eval(t any) (*Relation, error) { return &Relation{}, nil }

// Close releases the evaluator.
func (ev *Evaluator) Close() {}

// FixpointLoop mirrors the tracked semi-naive loop.
type FixpointLoop struct{}

// NewFixpointLoop seeds a loop on ev: closecheck tracks its result, and
// gaugecharge requires ev.Gauge to be set first.
func (ev *Evaluator) NewFixpointLoop(init *Relation) *FixpointLoop { return &FixpointLoop{} }

// Step runs one iteration.
func (l *FixpointLoop) Step() (int, error) { return 0, nil }

// Close releases the loop.
func (l *FixpointLoop) Close() {}
