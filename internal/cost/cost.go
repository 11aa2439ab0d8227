// Package cost implements the CostEstimator of Dist-µ-RA (§IV): a
// Selinger-style cost model based on cardinality estimation for µ-RA
// subterms, with the logarithm-based technique of Lawal et al.
// (CIKM 2020, [22]/[24] in the paper) for fixpoints: the number of
// semi-naive iterations is estimated as the logarithm of the ratio between
// the fixpoint's saturation bound and its seed size under the recursion's
// per-step expansion factor.
//
// Costs are abstract work units (tuples scanned, hashed and produced); the
// estimator ranks equivalent logical plans so the best one can be selected
// for physical planning, reproducing the Fig. 15 experiment.
package cost

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// RelStats summarizes a base relation: row count and per-column distinct
// counts.
type RelStats struct {
	Rows     float64
	Distinct map[string]float64
	Cols     []string
}

// StatsOf computes exact statistics of a relation (used to seed the
// catalog; PostgreSQL's ANALYZE plays this role in the paper's system).
func StatsOf(r *core.Relation) *RelStats {
	s := &RelStats{
		Rows:     float64(r.Len()),
		Distinct: make(map[string]float64, r.Arity()),
		Cols:     r.Cols(),
	}
	for i, c := range r.Cols() {
		seen := make(map[core.Value]struct{})
		for ri := 0; ri < r.Len(); ri++ {
			seen[r.RowAt(ri)[i]] = struct{}{}
		}
		s.Distinct[c] = float64(len(seen))
	}
	return s
}

// Catalog provides statistics for the free relation variables of a term.
type Catalog struct {
	Rels map[string]*RelStats

	// Cached, when set, reports whether a fixpoint subterm's materialized
	// result is (or is about to be) available in the engine's sub-result
	// cache — including stale entries the cache will upgrade in place
	// from an insert-only graph delta, whose refresh cost is proportional
	// to the delta rather than the fixpoint. A cached fixpoint costs only
	// its scan, steering plan selection toward shapes whose recursive
	// subplans other sessions already paid for. Nil means no cache is
	// consulted.
	Cached func(core.Term) bool
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{Rels: make(map[string]*RelStats)} }

// Bind registers statistics for a relation name.
func (c *Catalog) Bind(name string, s *RelStats) { c.Rels[name] = s }

// BindRelation computes and registers exact statistics for r.
func (c *Catalog) BindRelation(name string, r *core.Relation) {
	c.Bind(name, StatsOf(r))
}

// FromEnv builds a catalog with exact statistics for every relation in env.
func FromEnv(env *core.Env) *Catalog {
	c := NewCatalog()
	for name, r := range env.Rels {
		c.BindRelation(name, r)
	}
	return c
}

// Estimate is the estimated profile of a subterm: output cardinality,
// distinct counts per column (aligned with the sorted Cols), cumulative
// cost (abstract work units), and the peak operator-owned memory (bytes)
// evaluating it is expected to hold — join build indexes, dedup sets at
// sinks, and fixpoint accumulators, priced with the same constants the
// runtime MemGauge charges (core.AccRowBytes, core.IndexRowBytes). Input
// relations owned by the storage layer are not counted; see
// ARCHITECTURE.md, "Memory governance".
type Estimate struct {
	Rows     float64
	Distinct []float64 // Distinct[i] is the distinct count of Cols[i]
	Cols     []string
	Cost     float64
	Mem      float64
}

// clone copies e with a Distinct slice of its own.
func (e *Estimate) clone() *Estimate {
	out := *e
	out.Distinct = slices.Clone(e.Distinct)
	return &out
}

// distinct returns the distinct count of column c, 0 when e has no such
// column. i is where c is expected: a lookup at the same position in an
// estimate of the same columns costs no search.
func (e *Estimate) distinct(i int, c string) float64 {
	if i < len(e.Cols) && e.Cols[i] == c {
		return e.Distinct[i]
	}
	if i = core.ColIndex(e.Cols, c); i >= 0 {
		return e.Distinct[i]
	}
	return 0
}

// dedupSlotBytes prices one row of a deduplicating sink (union,
// anti-projection, pipeline sinks): core.AccRowBytes(0) is exactly the
// hash + slot bookkeeping with no values.
var dedupSlotBytes = float64(core.AccRowBytes(0))

// clampDistinct caps every distinct count by the row count (a column cannot
// have more distinct values than there are rows).
func (e *Estimate) clampDistinct() {
	for i, v := range e.Distinct {
		e.Distinct[i] = math.Max(1, math.Min(v, e.Rows))
	}
	if e.Rows < 0 {
		e.Rows = 0
	}
}

// maxFixpointIters bounds the simulated geometric growth of a fixpoint.
const maxFixpointIters = 64

// Estimator estimates µ-RA term cardinalities and costs against a catalog.
//
// An estimator memoizes the estimate of every subterm that mentions no
// bound recursion variable, keyed by the subterm's pointer: the plans of
// one optimize call share their subterms (the rewriter's memo interns
// them, and core.Decompose hands back a fixpoint's own seed), so each
// shared subterm, fixpoint seeds included, is estimated once however many
// plans contain it. Estimates are shared and never modified: a bound
// variable and an identity renaming return their operand's estimate.
type Estimator struct {
	Cat *Catalog

	memo map[core.Term]*Estimate
	free map[core.Term][]string // free variables, sorted
}

// NewEstimator returns an estimator over cat.
func NewEstimator(cat *Catalog) *Estimator {
	return &Estimator{Cat: cat}
}

// Estimate computes the profile of t. Recursion variables of enclosing
// fixpoints must not occur free (Estimate handles fixpoints internally).
// The result may be shared with later estimates and must not be modified.
func (es *Estimator) Estimate(t core.Term) (*Estimate, error) {
	return es.estimate(t, map[string]*Estimate{})
}

func (es *Estimator) estimate(t core.Term, bound map[string]*Estimate) (*Estimate, error) {
	if es.memo == nil {
		es.memo, es.free = make(map[core.Term]*Estimate), make(map[core.Term][]string)
	}
	if es.mentionsBound(t, bound) {
		return es.estimateNode(t, bound)
	}
	if e, ok := es.memo[t]; ok {
		return e, nil
	}
	e, err := es.estimateNode(t, bound)
	if err == nil {
		es.memo[t] = e
	}
	return e, err
}

// estimateNode computes the profile of t from its operands' profiles. It
// never modifies an operand's estimate.
func (es *Estimator) estimateNode(t core.Term, bound map[string]*Estimate) (*Estimate, error) {
	switch n := t.(type) {
	case *core.Var:
		if b, ok := bound[n.Name]; ok {
			return b, nil
		}
		s, ok := es.Cat.Rels[n.Name]
		if !ok {
			return nil, fmt.Errorf("cost: no statistics for relation %q", n.Name)
		}
		d := make([]float64, len(s.Cols))
		for i, c := range s.Cols {
			d[i] = s.Distinct[c]
		}
		return &Estimate{Rows: s.Rows, Distinct: d, Cols: s.Cols, Cost: s.Rows}, nil
	case *core.ConstTuple:
		d := make([]float64, len(n.Cols))
		for i := range d {
			d[i] = 1
		}
		return &Estimate{Rows: 1, Distinct: d, Cols: n.Cols, Cost: 1}, nil
	case *core.Union:
		l, err := es.estimate(n.L, bound)
		if err != nil {
			return nil, err
		}
		r, err := es.estimate(n.R, bound)
		if err != nil {
			return nil, err
		}
		out := &Estimate{Rows: l.Rows + r.Rows, Distinct: make([]float64, len(l.Cols)), Cols: l.Cols}
		for i, c := range l.Cols {
			out.Distinct[i] = l.Distinct[i] + r.distinct(i, c)
		}
		out.Cost = l.Cost + r.Cost + out.Rows // dedup pass
		out.Mem = math.Max(math.Max(l.Mem, r.Mem), out.Rows*dedupSlotBytes)
		out.clampDistinct()
		return out, nil
	case *core.Join:
		l, err := es.estimate(n.L, bound)
		if err != nil {
			return nil, err
		}
		r, err := es.estimate(n.R, bound)
		if err != nil {
			return nil, err
		}
		out := joinEstimate(l, r)
		// Price the build index at the side the streaming evaluator will
		// actually build (eval.go streamJoin), not min(l, r): inside a
		// fixpoint the constant side builds whatever its size; outside,
		// a lone bare-Var operand builds (cacheable index), two bare Vars
		// build the smaller, and otherwise the right side builds.
		lDyn, rDyn := es.mentionsBound(n.L, bound), es.mentionsBound(n.R, bound)
		var buildRows float64
		if lDyn != rDyn {
			buildRows = r.Rows
			if rDyn {
				buildRows = l.Rows
			}
		} else {
			_, lVar := n.L.(*core.Var)
			_, rVar := n.R.(*core.Var)
			switch {
			case lVar && rVar:
				buildRows = math.Min(l.Rows, r.Rows)
			case lVar:
				buildRows = l.Rows
			default:
				buildRows = r.Rows
			}
		}
		out.Mem = math.Max(out.Mem, buildRows*float64(core.IndexRowBytes))
		return out, nil
	case *core.Antijoin:
		l, err := es.estimate(n.L, bound)
		if err != nil {
			return nil, err
		}
		r, err := es.estimate(n.R, bound)
		if err != nil {
			return nil, err
		}
		out := l.clone()
		// Standard heuristic: half the probing side survives.
		out.Rows = l.Rows / 2
		out.Cost = l.Cost + r.Cost + l.Rows + r.Rows
		// The right side is materialized and indexed.
		out.Mem = math.Max(math.Max(l.Mem, r.Mem), r.Rows*float64(core.IndexRowBytes))
		out.clampDistinct()
		return out, nil
	case *core.Filter:
		in, err := es.estimate(n.T, bound)
		if err != nil {
			return nil, err
		}
		out := in.clone()
		sel := condSelectivity(n.Cond, in)
		out.Rows = in.Rows * sel
		for _, c := range n.Cond.Columns() {
			if i := core.ColIndex(out.Cols, c); i >= 0 && isEqConstOn(n.Cond, c) {
				out.Distinct[i] = 1
			}
		}
		out.Cost = in.Cost + in.Rows
		out.clampDistinct()
		return out, nil
	case *core.Rename:
		in, err := es.estimate(n.T, bound)
		if err != nil {
			return nil, err
		}
		if n.From == n.To {
			return in, nil
		}
		cols := make([]string, 0, len(in.Cols))
		for _, c := range in.Cols {
			if c == n.From {
				cols = append(cols, n.To)
			} else {
				cols = append(cols, c)
			}
		}
		out := *in
		out.Cols = core.SortCols(cols)
		out.Distinct = make([]float64, len(out.Cols))
		for i, c := range out.Cols {
			if c == n.To {
				c = n.From
			}
			out.Distinct[i] = in.distinct(i, c)
		}
		return &out, nil
	case *core.AntiProject:
		in, err := es.estimate(n.T, bound)
		if err != nil {
			return nil, err
		}
		out := *in
		out.Cols = core.ColsMinus(in.Cols, n.Cols)
		out.Distinct = make([]float64, len(out.Cols))
		for i, c := range out.Cols {
			out.Distinct[i] = in.distinct(i, c)
		}
		// Deduplication can shrink the result to the product of the
		// remaining distinct counts.
		maxRows := 1.0
		for _, d := range out.Distinct {
			maxRows *= math.Max(1, d)
			if maxRows > in.Rows {
				maxRows = in.Rows
				break
			}
		}
		if len(out.Cols) == 0 {
			maxRows = 1
		}
		out.Rows = math.Min(in.Rows, maxRows)
		out.Cost = in.Cost + in.Rows
		out.Mem = math.Max(in.Mem, out.Rows*dedupSlotBytes)
		out.clampDistinct()
		return &out, nil
	case *core.Fixpoint:
		est, err := es.estimateFixpoint(n, bound)
		if err != nil || es.Cat.Cached == nil || es.mentionsBound(n, bound) || !es.Cat.Cached(n) {
			return est, err
		}
		// The materialized result is already (or will momentarily be) in
		// the engine's sub-result cache: evaluating it costs only the scan
		// of its rows and holds no operator-owned memory of its own.
		out := *est
		out.Cost = out.Rows
		out.Mem = 0
		return &out, nil
	default:
		return nil, fmt.Errorf("cost: unknown term %T", t)
	}
}

func joinEstimate(l, r *Estimate) *Estimate {
	common := core.ColsIntersect(l.Cols, r.Cols)
	sel := 1.0
	for _, c := range common {
		sel /= math.Max(1, math.Max(l.distinct(0, c), r.distinct(0, c)))
	}
	out := &Estimate{
		Rows: l.Rows * r.Rows * sel,
		Cols: core.ColsUnion(l.Cols, r.Cols),
	}
	out.Distinct = make([]float64, len(out.Cols))
	for i, c := range out.Cols {
		li, ri := core.ColIndex(l.Cols, c), core.ColIndex(r.Cols, c)
		switch {
		case li >= 0 && ri >= 0:
			out.Distinct[i] = math.Min(l.Distinct[li], r.Distinct[ri])
		case li >= 0:
			out.Distinct[i] = l.Distinct[li]
		default:
			out.Distinct[i] = r.Distinct[ri]
		}
	}
	out.Cost = l.Cost + r.Cost + l.Rows + r.Rows + out.Rows
	// Baseline memory: the smaller side as hash-join build (the Join arm
	// of estimate() raises this to the evaluator's actual build choice)
	// plus the output dedup sink the join drains into.
	out.Mem = math.Max(math.Max(l.Mem, r.Mem),
		math.Min(l.Rows, r.Rows)*float64(core.IndexRowBytes))
	out.Mem = math.Max(out.Mem, out.Rows*dedupSlotBytes)
	out.clampDistinct()
	return out
}

func condSelectivity(c core.Condition, in *Estimate) float64 {
	switch n := c.(type) {
	case core.EqConst:
		return 1 / math.Max(1, in.distinct(0, n.Col))
	case core.NeConst:
		return 1 - 1/math.Max(1, in.distinct(0, n.Col))
	case core.EqCols:
		return 1 / math.Max(1, math.Max(in.distinct(0, n.A), in.distinct(0, n.B)))
	case core.And:
		s := 1.0
		for _, sub := range n {
			s *= condSelectivity(sub, in)
		}
		return s
	case core.Or:
		s := 0.0
		for _, sub := range n {
			s += condSelectivity(sub, in)
		}
		return math.Min(1, s)
	default:
		return 0.5
	}
}

// mentionsBound reports whether t mentions any currently-bound recursion
// variable (the estimator's analog of the evaluator's isDynamic).
func (es *Estimator) mentionsBound(t core.Term, bound map[string]*Estimate) bool {
	if len(bound) == 0 {
		return false
	}
	for _, v := range es.freeVars(t) {
		if _, ok := bound[v]; ok {
			return true
		}
	}
	return false
}

// freeVars returns the free variables of t, memoized per subterm.
func (es *Estimator) freeVars(t core.Term) []string {
	if fv, ok := es.free[t]; ok {
		return fv
	}
	var fv []string
	switch n := t.(type) {
	case *core.Var:
		fv = []string{n.Name}
	case *core.Fixpoint:
		for _, v := range es.freeVars(n.Body) {
			if v != n.X {
				fv = append(fv, v)
			}
		}
	default:
		for _, c := range core.Children(t) {
			if cv := es.freeVars(c); len(fv) == 0 {
				fv = cv
			} else if len(cv) > 0 {
				fv = core.ColsUnion(fv, cv)
			}
		}
	}
	es.free[t] = fv
	return fv
}

func isEqConstOn(c core.Condition, col string) bool {
	switch n := c.(type) {
	case core.EqConst:
		return n.Col == col
	case core.And:
		for _, sub := range n {
			if isEqConstOn(sub, col) {
				return true
			}
		}
	}
	return false
}

// estimateFixpoint implements the logarithm-based fixpoint estimation. The
// seed is the constant part R; one symbolic application of φ to the seed
// yields the per-iteration expansion factor f; the result grows
// geometrically until it saturates at the schema's distinct-value bound, so
// the iteration count is logarithmic in (bound / |R|) base f. The cost sums
// the per-iteration φ work over those simulated iterations — exactly the
// shape of semi-naive evaluation.
func (es *Estimator) estimateFixpoint(fp *core.Fixpoint, bound map[string]*Estimate) (*Estimate, error) {
	d, err := core.Decompose(fp)
	if err != nil {
		return nil, err
	}
	seed, err := es.estimate(d.Const, bound)
	if err != nil {
		return nil, err
	}
	if len(d.PhiBranches) == 0 {
		return seed, nil
	}
	// Estimate one application of φ on the seed.
	phiOnSeed := func(x *Estimate) (*Estimate, float64, error) {
		nb := make(map[string]*Estimate, len(bound)+1)
		for k, v := range bound {
			nb[k] = v
		}
		nb[d.X] = x
		var total *Estimate
		var stepCost float64
		for _, br := range d.PhiBranches {
			e, err := es.estimate(br, nb)
			if err != nil {
				return nil, 0, err
			}
			stepCost += e.Cost
			if total == nil {
				total = e.clone()
			} else {
				total.Rows += e.Rows
				total.Mem = math.Max(total.Mem, e.Mem)
				for i, c := range total.Cols {
					total.Distinct[i] = math.Max(total.Distinct[i], e.distinct(i, c))
				}
			}
		}
		total.clampDistinct()
		return total, stepCost, nil
	}

	first, stepCost, err := phiOnSeed(seed)
	if err != nil {
		return nil, err
	}
	f := 1.0
	if seed.Rows > 0 {
		f = first.Rows / seed.Rows
	}
	// The domain of each output column: the largest distinct count seen
	// for it. The saturation bound is their product.
	dom := make([]float64, len(seed.Cols))
	for i, c := range seed.Cols {
		dom[i] = math.Max(seed.Distinct[i], first.distinct(i, c))
	}
	satBound := 1.0
	for _, d := range dom {
		satBound *= math.Max(1, d)
		if satBound > 1e15 {
			satBound = 1e15
			break
		}
	}
	total := seed.Rows
	delta := seed.Rows
	cost := seed.Cost
	iters := 0
	for iters < maxFixpointIters && delta >= 1 && total < satBound {
		delta *= f
		// Deltas shrink as the result saturates (semi-naive subtracts the
		// accumulated set); damp geometric blow-ups.
		if total+delta > satBound {
			delta = satBound - total
		}
		total += delta
		cost += stepCost * math.Max(1, delta/math.Max(1, seed.Rows))
		iters++
		if f <= 1 {
			// Sub-linear growth: the recursion dies out in about
			// log(seed)/log(1/f) steps; stop once the delta is negligible.
			if delta < 1 {
				break
			}
		}
	}
	out := &Estimate{
		Rows:     math.Min(total, satBound),
		Distinct: dom,
		Cols:     seed.Cols,
		Cost:     cost,
	}
	// Peak memory: X lives in the fixpoint accumulator at its final size,
	// on top of whatever one φ application holds.
	out.Mem = math.Max(math.Max(seed.Mem, first.Mem),
		out.Rows*float64(core.AccRowBytes(len(seed.Cols))))
	out.clampDistinct()
	return out, nil
}

// Ranked pairs a plan with its estimated cost and the full estimate it
// came from (nil when estimation failed), so consumers — notably the
// memory planner — need not re-estimate the winner.
type Ranked struct {
	Plan core.Term
	Cost float64
	Est  *Estimate
}

// SelectBest estimates every plan and returns the cheapest together with
// the full ranking (in input order). Plans that fail to estimate rank +Inf.
func SelectBest(plans []core.Term, cat *Catalog) (best core.Term, ranking []Ranked) {
	es := NewEstimator(cat)
	bestCost := math.Inf(1)
	for _, p := range plans {
		est, err := es.Estimate(p)
		c := math.Inf(1)
		if err == nil {
			c = est.Cost
		} else {
			est = nil
		}
		ranking = append(ranking, Ranked{Plan: p, Cost: c, Est: est})
		if c < bestCost {
			bestCost = c
			best = p
		}
	}
	if best == nil && len(plans) > 0 {
		best = plans[0]
	}
	return best, ranking
}
