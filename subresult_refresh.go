package distmura

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// This file is the incremental view maintenance behind the sub-result
// cache's upgrade-in-place path (subresult.go): a cached fixpoint result
// is brought up to date from the graph's change log instead of being
// recomputed. Inserts resume the semi-naive evaluation of §IV — the
// cached rows stand in for X, the new edges are the first delta, and
// iteration runs until no new rows appear. Deletes run classic DRed
// (delete-rederive) first: phase 1 over-deletes every cached row whose
// derivation may have used a removed edge by iterating the delta
// derivative against the cached fixpoint, phase 2 rederives the
// over-deleted rows that survive via alternative derivations from the
// remaining base rows, and phase 3 applies the accompanying inserts via
// the resume path, seeded from the post-retraction rows. Cost is
// proportional to the delta and its consequences (plus, when rows were
// deleted, one φ pass over the survivors for rederivation), not to a full
// from-scratch fixpoint.

// deltaRel is the environment name the refresh binds the changed-edge
// relation to inside derivative terms. The NUL prefix keeps it outside
// every parser- or planner-reachable namespace, so it can never collide
// with a user relation or an optimizer-introduced variable.
const deltaRel = "\x00deltaG"

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
// plus its exact net delta against the old rows (addedRows appeared,
// removedRows disappeared — an edge deleted and rederived, or deleted and
// re-inserted, lands in neither) and the phase counters.
type refreshOutcome struct {
	rel         *core.Relation
	addedRows   *core.Relation
	removedRows *core.Relation
	added       int64 // rows in addedRows
	retracted   int64 // rows over-deleted by DRed phase 1
	rederived   int64 // over-deleted rows salvaged by phases 2–3
}

// refreshSubResult maintains one cached fixpoint from its stale rows given
// the net change-log delta {added, removed} of the edges its term reads.
//
// With removals, DRed runs first against the pre-delete graph (current
// triples plus the removed edges — reconstructing the union is one scan):
//
//	D₀   = the one-step derivative of the constant part and each φ branch
//	       with one G occurrence bound to the removed edges and X bound to
//	       the old rows, intersected with the old rows — every derivation
//	       that consumed a removed edge consumed it at some occurrence;
//	Dn+1 = φ(Dn) ∩ old  (the same derivative iterated at the X position,
//	       still over the pre-delete graph), until no new rows: D is the
//	       over-deletion, retracted from the accumulator by marking;
//	R₀   = D ∩ (Const ∪ φ(old \ D)) over the *current* graph — the
//	       over-deleted rows with an alternative, well-founded derivation
//	       from the surviving rows;
//	Rn+1 = D ∩ φ(Rn), resurrecting transitively until no new rows.
//
// Then inserts resume semi-naive evaluation exactly as before, except X₀
// is the post-retraction rows — a derivation through a row that just died
// must not be revived by an unrelated insert. Rows the insert delta
// rederives (an edge deleted and re-added elsewhere restoring a path) are
// resurrected by the accumulator's Add and leave the removed set.
//
// old is shared and read-only (other sessions may be scanning it); the
// accumulator seeds from it by copy and retractions only mark rows dead.
// g.Triples is read live — the caller has snapshotted generations
// *before* computing, so a write racing the refresh re-stales the entry
// rather than corrupting it.
func refreshSubResult(ctx context.Context, g *graphgen.Graph, fp *core.Fixpoint, old *core.Relation, added, removed *core.Relation) (refreshOutcome, error) {
	st := refreshOutcome{
		addedRows:   core.NewRelation(old.Cols()...),
		removedRows: core.NewRelation(old.Cols()...),
	}
	d, ok := refreshableSubResult(fp)
	if !ok {
		// The acquire path gates on the entry's refreshable flag, so this
		// is unreachable; kept as a cheap invariant for direct callers.
		return st, errNotRefreshable
	}

	acc := core.NewAccumulator(old.Cols()...)
	defer acc.Close()
	acc.Absorb(old)
	dvar := &core.Var{Name: deltaRel}

	// surv is X after retraction: the rows phase 3 may seed derivations
	// from. Without removals it is the old relation itself, uncopied.
	surv := old
	dSet := st.removedRows

	if removed.Len() > 0 {
		// Phase 1: over-delete against the pre-delete graph. Binding other
		// G occurrences to current ∪ removed (rather than current) keeps
		// derivations that used two removed edges at different occurrences
		// in view; any extra derivations the concurrent inserts contribute
		// only enlarge D, which phase 2 repairs.
		oldTriples := g.Triples.Clone()
		oldTriples.UnionInPlace(removed)
		envOld := core.NewEnv()
		envOld.Bind(edgeRel, oldTriples)
		envOld.Bind(deltaRel, removed)
		evOld := core.NewEvaluator(envOld)
		evOld.Ctx = ctx
		defer evOld.Close()

		frontier := core.NewRelation(old.Cols()...)
		overdelete := func(cand *core.Relation, into *core.Relation) {
			for i := 0; i < cand.Len(); i++ {
				row := cand.RowAt(i)
				if old.Has(row) && dSet.Add(row) {
					into.Add(row)
				}
			}
		}
		for i, n := 0, core.CountVarOccurrences(d.Const, edgeRel); i < n; i++ {
			r, err := evOld.Eval(core.SubstituteOccurrence(d.Const, edgeRel, i, dvar))
			if err != nil {
				return st, err
			}
			overdelete(r, frontier)
		}
		var derived []core.Term
		for _, br := range d.PhiBranches {
			for i, n := 0, core.CountVarOccurrences(br, edgeRel); i < n; i++ {
				derived = append(derived, core.SubstituteOccurrence(br, edgeRel, i, dvar))
			}
		}
		if len(derived) > 0 {
			dd := &core.Decomposed{X: d.X, Const: d.Const, PhiBranches: derived}
			step, err := evOld.EvalPhiDelta(dd, old, envOld, nil)
			if err != nil {
				return st, err
			}
			overdelete(step, frontier)
		}
		for frontier.Len() > 0 {
			if err := core.CtxErr(ctx); err != nil {
				return st, err
			}
			step, err := evOld.EvalPhiDelta(d, frontier, envOld, nil)
			if err != nil {
				return st, err
			}
			next := core.NewRelation(old.Cols()...)
			overdelete(step, next)
			frontier = next
		}
		st.retracted = int64(dSet.Len())
		acc.RemoveRows(dSet)
		surv = old.Diff(dSet)
	}

	env := core.NewEnv()
	env.Bind(edgeRel, g.Triples)
	env.Bind(deltaRel, added)
	ev := core.NewEvaluator(env)
	ev.Ctx = ctx
	defer ev.Close()

	if dSet.Len() > 0 {
		// Phase 2: rederive. Candidates must land in D (anything else is
		// either already alive or belongs to the insert phase) and must be
		// derivable from live rows only — the accumulator's Add resurrects
		// by dropping the dead mark.
		resurrect := func(cand *core.Relation, into *core.Relation) {
			for i := 0; i < cand.Len(); i++ {
				row := cand.RowAt(i)
				if dSet.Has(row) && acc.Add(row) {
					dSet.Remove(row)
					surv.Add(row)
					st.rederived++
					into.Add(row)
				}
			}
		}
		frontier := core.NewRelation(old.Cols()...)
		base, err := ev.Eval(d.Const)
		if err != nil {
			return st, err
		}
		resurrect(base, frontier)
		if dSet.Len() > 0 {
			step, err := ev.EvalPhiDelta(d, surv, env, nil)
			if err != nil {
				return st, err
			}
			resurrect(step, frontier)
		}
		for frontier.Len() > 0 && dSet.Len() > 0 {
			if err := core.CtxErr(ctx); err != nil {
				return st, err
			}
			step, err := ev.EvalPhiDelta(d, frontier, env, nil)
			if err != nil {
				return st, err
			}
			next := core.NewRelation(old.Cols()...)
			resurrect(step, next)
			frontier = next
		}
	}

	if added.Len() > 0 {
		// Phase 3: the insert resume. AbsorbNew returns resurrections of
		// still-dead rows alongside genuinely new rows; both feed the next
		// delta (a revived row derives consequences like any other), and
		// note splits them for the outcome's exact net deltas.
		note := func(fresh *core.Relation) {
			for i := 0; i < fresh.Len(); i++ {
				row := fresh.RowAt(i)
				if dSet.Len() > 0 && dSet.Remove(row) {
					st.rederived++
				} else {
					st.addedRows.Add(row)
					st.added++
				}
			}
		}
		fresh := core.NewRelation(old.Cols()...)
		for i, n := 0, core.CountVarOccurrences(d.Const, edgeRel); i < n; i++ {
			r, err := ev.Eval(core.SubstituteOccurrence(d.Const, edgeRel, i, dvar))
			if err != nil {
				return st, err
			}
			fresh.UnionInPlace(acc.AbsorbNew(r))
		}
		var derived []core.Term
		for _, br := range d.PhiBranches {
			for i, n := 0, core.CountVarOccurrences(br, edgeRel); i < n; i++ {
				derived = append(derived, core.SubstituteOccurrence(br, edgeRel, i, dvar))
			}
		}
		if len(derived) > 0 {
			// One φ step of the derivative branches with X := the
			// post-retraction rows — EvalPhiDelta marks X dynamic, so surv
			// is only streamed and probed, never mutated.
			dd := &core.Decomposed{X: d.X, Const: d.Const, PhiBranches: derived}
			step, err := ev.EvalPhiDelta(dd, surv, env, nil)
			if err != nil {
				return st, err
			}
			fresh.UnionInPlace(acc.AbsorbNew(step))
		}
		note(fresh)
		nu := fresh
		for nu.Len() > 0 {
			if err := core.CtxErr(ctx); err != nil {
				return st, err
			}
			step, err := ev.EvalPhiDelta(d, nu, env, nil)
			if err != nil {
				return st, err
			}
			nu = acc.AbsorbNew(step)
			note(nu)
		}
	}

	st.rel = acc.Materialize()
	return st, nil
}
