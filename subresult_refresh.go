package distmura

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// This file is the incremental view maintenance behind the sub-result
// cache's upgrade-in-place path (subresult.go): a cached fixpoint result
// is brought up to date from the graph's change log — DRed for deletes,
// then the semi-naive resume for inserts, each phase a guarded µ-RA
// fixpoint on the evaluator's own loop (refreshSubResult) — at a cost
// proportional to the delta and its consequences (plus, when rows were
// deleted, one φ pass over the survivors), not to a full recomputation.

// deltaRel is the environment name the refresh binds the changed-edge
// relation to inside derivative terms, and guardRel the name it binds a
// phase's guard relation to. The NUL prefix keeps both outside every
// parser- or planner-reachable namespace, so they can never collide with a
// user relation or an optimizer-introduced variable.
const (
	deltaRel = "\x00deltaG"
	guardRel = "\x00guard"
)

// errNotRefreshable reports a refresh attempted on a term that fails the
// refreshableSubResult gate.
var errNotRefreshable = errors.New("distmura: sub-result term is not delta-refreshable")

// refreshableSubResult reports whether a cached entry for fp can be
// maintained in place from a change-log delta — by semi-naive resume for
// inserts and by DRed retraction for deletes — returning the
// decomposition the maintenance runs on. Beyond cacheableFixpoint
// (already enforced when the entry was keyed) the gates are:
//
//   - the term decomposes (core.Decompose: Fcond, with a constant part) —
//     the shape both the semi-naive resume and the DRed derivative
//     iterate on;
//   - no antijoin anywhere in the body: Fcond only guarantees positivity
//     in X, but an antijoin whose right side reads the graph makes the
//     result non-monotone in the *graph* — an inserted edge can remove
//     rows and a removed edge can add rows, which neither the insert
//     resume nor the over-delete/rederive pair can express;
//   - no nested fixpoint in the body: the delta of an inner fixpoint is
//     not the fixpoint of the delta, so the one-step derivative seeding
//     below would under-derive (inserts) or under-delete (removals)
//     through it.
//
// Entries failing a gate evict on sight and recompute from scratch — a
// delta containing removals is never applied to (and never served from)
// an entry that cannot run DRed.
func refreshableSubResult(fp *core.Fixpoint) (*core.Decomposed, bool) {
	mono := true
	core.Walk(fp.Body, func(t core.Term) bool {
		switch t.(type) {
		case *core.Antijoin, *core.Fixpoint:
			mono = false
			return false
		}
		return true
	})
	if !mono {
		return nil, false
	}
	d, err := core.Decompose(fp)
	if err != nil {
		return nil, false
	}
	return d, true
}

// refreshOutcome reports one maintenance run: the new materialized result
// and the phase counters. They are exact net counts against the old rows
// — a row deleted and rederived, or deleted and re-inserted, counts as
// rederived, not as added — so retracted − rederived rows disappeared.
type refreshOutcome struct {
	rel       *core.Relation
	added     int64 // rows in the new result but not the old
	retracted int64 // rows over-deleted by DRed phase 1
	rederived int64 // over-deleted rows salvaged by phases 2–3
}

// refreshSubResult maintains one cached fixpoint µ(X = Const ∪ φ(X)) from
// its stale rows old given the net change-log delta {added, removed} of
// the edges its term reads. With G the guard relation of a phase, b ⋈ G is
// an intersection and b ▷ G a difference (same schema), and ∂ denotes the
// edge-derivatives of Const and of φ — one term per G occurrence, with
// that occurrence bound to the delta. Three guarded fixpoints run:
//
//	D = µ(X = D₀ ∪ φ(X) ⋈ old)   D₀ = ∂(X := old) ⋈ old, Δ = removed,
//	                              over the pre-delete graph
//	R = µ(X = R₀ ∪ φ(X) ⋈ D)     R₀ = (Const ∪ φ(X := old \ D)) ⋈ D
//	N = µ(X = N₀ ∪ φ(X) ▷ S)     N₀ = ∂(X := S) ▷ S, Δ = added,
//	                              S = (old \ D) ∪ R
//
// D is the over-deletion: every cached row with a derivation that consumed
// a removed edge at some occurrence. The pre-delete graph is current ∪
// removed (one scan); binding every G occurrence to it keeps derivations
// that used two removed edges in view, and the extra derivations the
// concurrent inserts contribute only enlarge D, which phase 2 repairs. R
// is the over-deleted rows with an alternative, well-founded derivation
// from the survivors over the current graph. N is the insert resume:
// X₀ is the post-retraction rows, so a derivation through a row that just
// died is not revived by an unrelated insert. The result is S ∪ N, two
// disjoint sets, appended with no membership probe; the net counters come
// from the delta-sized D, R and N alone.
//
// old is shared and read-only (other sessions may be scanning it): it is
// only scanned and probed. g.Triples is read live — the caller has
// snapshotted generations *before* computing, so a write racing the
// refresh re-stales the entry rather than corrupting it.
func refreshSubResult(ctx context.Context, g *graphgen.Graph, fp *core.Fixpoint, old *core.Relation, added, removed *core.Relation) (refreshOutcome, error) {
	d, ok := refreshableSubResult(fp)
	if !ok {
		// The one caller, the cache's refreshLocked, gates on the entry's
		// refreshable flag, so this is unreachable from the engine; kept as
		// a cheap invariant for tests that maintain a relation directly.
		return refreshOutcome{}, errNotRefreshable
	}
	none := core.NewRelation(old.Cols()...)
	dRel, rRel, nRel := none, none, none
	// surv is S: the rows that survive retraction. Without an
	// over-deletion it is the old relation itself, uncopied.
	surv := old
	var err error

	if removed.Len() > 0 {
		oldTriples := g.Triples.Clone()
		oldTriples.UnionInPlace(removed)
		env := core.NewEnv()
		env.Bind(edgeRel, oldTriples)
		env.Bind(deltaRel, removed)
		env.Bind(guardRel, old)
		ev := core.NewEvaluator(env)
		ev.Ctx = ctx
		defer ev.Close()
		if dRel, err = guardedFixpoint(ev, env, d, derivatives(d), old, within); err != nil {
			return refreshOutcome{}, err
		}
	}

	env := core.NewEnv()
	env.Bind(edgeRel, g.Triples)
	env.Bind(deltaRel, added)
	ev := core.NewEvaluator(env)
	ev.Ctx = ctx
	defer ev.Close()

	if dRel.Len() > 0 {
		surv = old.Diff(dRel)
		env.Bind(guardRel, dRel)
		seed := append([]core.Term{d.Const}, d.PhiBranches...)
		if rRel, err = guardedFixpoint(ev, env, d, seed, surv, within); err != nil {
			return refreshOutcome{}, err
		}
		surv.AppendDistinct(rRel.AsBatch())
	}

	if added.Len() > 0 {
		env.Bind(guardRel, surv)
		if nRel, err = guardedFixpoint(ev, env, d, derivatives(d), surv, outside); err != nil {
			return refreshOutcome{}, err
		}
	}

	gained := nRel.Diff(dRel.Diff(rRel)).Len()
	st := refreshOutcome{
		rel:       surv,
		added:     int64(gained),
		retracted: int64(dRel.Len()),
		rederived: int64(rRel.Len() + nRel.Len() - gained),
	}
	if nRel.Len() > 0 {
		if surv == old {
			st.rel = old.Clone() // old is shared: never appended to
		}
		st.rel.AppendDistinct(nRel.AsBatch())
	}
	return st, nil
}

// guardedFixpoint runs one maintenance phase on the evaluator's semi-naive
// loop: µ(X = guard(seed)(X := x) ∪ guard(φ)(X)), where guard wraps every
// branch against the relation env binds to guardRel. The seed is one φ
// step of the guarded seed terms.
func guardedFixpoint(ev *core.Evaluator, env *core.Env, d *core.Decomposed, seed []core.Term, x *core.Relation, guard func(core.Term) core.Term) (*core.Relation, error) {
	guarded := func(ts []core.Term) *core.Decomposed {
		out := &core.Decomposed{X: d.X, Const: d.Const, PhiBranches: make([]core.Term, len(ts))}
		for i, t := range ts {
			out.PhiBranches[i] = guard(t)
		}
		return out
	}
	init, err := ev.EvalPhiDelta(guarded(seed), x, env)
	if err != nil {
		return nil, err
	}
	return ev.RunFixpoint(guarded(d.PhiBranches), init, env)
}

// within and outside guard a branch against the phase's guard relation:
// with equal schemas, a join is an intersection and an antijoin a
// difference, both answered by the guard's own dedup set
// (core.SemijoinStream) with the branch left on the bag root chain.
func within(t core.Term) core.Term  { return &core.Join{L: t, R: &core.Var{Name: guardRel}} }
func outside(t core.Term) core.Term { return &core.Antijoin{L: t, R: &core.Var{Name: guardRel}} }

// derivatives returns the edge-derivatives of the constant part and of
// every φ branch: one term per occurrence of the edge relation, with that
// occurrence bound to the delta — every derivation that consumed a changed
// edge consumed it at some occurrence.
func derivatives(d *core.Decomposed) []core.Term {
	dvar := &core.Var{Name: deltaRel}
	var out []core.Term
	for _, t := range append([]core.Term{d.Const}, d.PhiBranches...) {
		for i, n := 0, core.CountVarOccurrences(t, edgeRel); i < n; i++ {
			out = append(out, core.SubstituteOccurrence(t, edgeRel, i, dvar))
		}
	}
	return out
}
