package rewrite

import (
	"repro/internal/core"
)

// AllRules returns the full Dist-µ-RA rule set.
func AllRules() []Rule {
	return []Rule{
		{"filter-push-union", ruleFilterPushUnion},
		{"filter-push-join", ruleFilterPushJoin},
		{"filter-push-antijoin", ruleFilterPushAntijoin},
		{"filter-push-rename", ruleFilterPushRename},
		{"filter-push-antiproject", ruleFilterPushAntiProject},
		{"filter-merge", ruleFilterMerge},
		{"filter-into-fixpoint", ruleFilterIntoFixpoint},
		{"antiproject-push-rename", ruleAntiProjectPushRename},
		{"antiproject-push-filter", ruleAntiProjectPushFilter},
		{"antiproject-push-join", ruleAntiProjectPushJoin},
		{"antiproject-push-union", ruleAntiProjectPushUnion},
		{"antiproject-into-fixpoint", ruleAntiProjectIntoFixpoint},
		{"reverse-closure", ruleReverseClosure},
		{"fold-compose-right", ruleFoldComposeRight},
		{"fold-compose-left", ruleFoldComposeLeft},
		{"merge-closures", ruleMergeClosures},
		{"join-into-fixpoint", ruleJoinIntoFixpoint},
		{"compose-assoc", ruleComposeAssoc},
	}
}

// schemaOf is a helper returning nil on schema errors (rules then decline).
func schemaOf(t core.Term, env core.SchemaEnv) []string {
	cols, err := core.Schema(t, env)
	if err != nil {
		return nil
	}
	return cols
}

func subset(a, b []string) bool {
	for _, c := range a {
		if core.ColIndex(b, c) < 0 {
			return false
		}
	}
	return true
}

func disjoint(a, b []string) bool {
	for _, c := range a {
		if core.ColIndex(b, c) >= 0 {
			return false
		}
	}
	return true
}

// --- classical filter pushdown ---------------------------------------------

// σf(a ∪ b) → σf(a) ∪ σf(b)
func ruleFilterPushUnion(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	f, ok := t.(*core.Filter)
	if !ok {
		return nil
	}
	u, ok := f.T.(*core.Union)
	if !ok {
		return nil
	}
	return []core.Term{&core.Union{
		L: &core.Filter{Cond: f.Cond, T: u.L},
		R: &core.Filter{Cond: f.Cond, T: u.R},
	}}
}

// σf(a ⋈ b) → σf(a) ⋈ b when cols(f) ⊆ cols(a), and symmetrically.
func ruleFilterPushJoin(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	f, ok := t.(*core.Filter)
	if !ok {
		return nil
	}
	j, ok := f.T.(*core.Join)
	if !ok {
		return nil
	}
	var out []core.Term
	fcols := f.Cond.Columns()
	if subset(fcols, schemaOf(j.L, env)) {
		out = append(out, &core.Join{L: &core.Filter{Cond: f.Cond, T: j.L}, R: j.R})
	}
	if subset(fcols, schemaOf(j.R, env)) {
		out = append(out, &core.Join{L: j.L, R: &core.Filter{Cond: f.Cond, T: j.R}})
	}
	return out
}

// σf(a ▷ b) → σf(a) ▷ b (the antijoin schema is a's schema).
func ruleFilterPushAntijoin(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	f, ok := t.(*core.Filter)
	if !ok {
		return nil
	}
	aj, ok := f.T.(*core.Antijoin)
	if !ok {
		return nil
	}
	return []core.Term{&core.Antijoin{
		L: &core.Filter{Cond: f.Cond, T: aj.L},
		R: aj.R,
	}}
}

// σf(ρ^b_a(t)) → ρ^b_a(σ f[b→a](t))
func ruleFilterPushRename(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	f, ok := t.(*core.Filter)
	if !ok {
		return nil
	}
	r, ok := f.T.(*core.Rename)
	if !ok {
		return nil
	}
	cond := renameCondCol(f.Cond, r.To, r.From)
	return []core.Term{&core.Rename{From: r.From, To: r.To,
		T: &core.Filter{Cond: cond, T: r.T}}}
}

// σf(π̃c(t)) → π̃c(σf(t)) when f does not read the dropped columns.
func ruleFilterPushAntiProject(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	f, ok := t.(*core.Filter)
	if !ok {
		return nil
	}
	ap, ok := f.T.(*core.AntiProject)
	if !ok {
		return nil
	}
	if !disjoint(f.Cond.Columns(), ap.Cols) {
		return nil
	}
	return []core.Term{&core.AntiProject{Cols: ap.Cols,
		T: &core.Filter{Cond: f.Cond, T: ap.T}}}
}

// σf(σg(t)) → σ(f∧g)(t): adjacent filters fuse into one pass.
func ruleFilterMerge(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	f, ok := t.(*core.Filter)
	if !ok {
		return nil
	}
	g, ok := f.T.(*core.Filter)
	if !ok {
		return nil
	}
	return []core.Term{&core.Filter{Cond: core.And{f.Cond, g.Cond}, T: g.T}}
}

// --- fixpoint-specific rules ------------------------------------------------

// ruleFilterIntoFixpoint: σf(µ(X = R ∪ φ)) → µ(X = σf(R) ∪ φ) when all
// columns of f are stable. Stable columns take their values from R tuples
// unchanged, so filtering R first removes exactly the derivations whose
// results f would reject (§IV "Pushing filters into fixpoints").
func ruleFilterIntoFixpoint(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	f, ok := t.(*core.Filter)
	if !ok {
		return nil
	}
	fp, ok := f.T.(*core.Fixpoint)
	if !ok {
		return nil
	}
	d, err := core.Decompose(fp)
	if err != nil {
		return nil
	}
	stable, err := core.StableCols(d, env)
	if err != nil || !subset(f.Cond.Columns(), stable) {
		return nil
	}
	nd := &core.Decomposed{X: d.X, Const: &core.Filter{Cond: f.Cond, T: d.Const}, PhiBranches: d.PhiBranches}
	return []core.Term{nd.Fixpoint()}
}

// --- anti-projection pushdown ----------------------------------------------

// π̃cols(ρ^b_a(t)): if b is dropped the rename is pointless — drop a
// instead; otherwise commute.
func ruleAntiProjectPushRename(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	ap, ok := t.(*core.AntiProject)
	if !ok {
		return nil
	}
	r, ok := ap.T.(*core.Rename)
	if !ok {
		return nil
	}
	if core.ColIndex(ap.Cols, r.To) >= 0 {
		ncols := make([]string, 0, len(ap.Cols))
		for _, c := range ap.Cols {
			if c == r.To {
				ncols = append(ncols, r.From)
			} else {
				ncols = append(ncols, c)
			}
		}
		return []core.Term{&core.AntiProject{Cols: core.SortCols(ncols), T: r.T}}
	}
	if core.ColIndex(ap.Cols, r.From) >= 0 {
		return nil // cannot drop the rename source before renaming
	}
	return []core.Term{&core.Rename{From: r.From, To: r.To,
		T: &core.AntiProject{Cols: ap.Cols, T: r.T}}}
}

// π̃cols(σf(t)) → σf(π̃cols(t)) when f does not read dropped columns.
func ruleAntiProjectPushFilter(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	ap, ok := t.(*core.AntiProject)
	if !ok {
		return nil
	}
	f, ok := ap.T.(*core.Filter)
	if !ok {
		return nil
	}
	if !disjoint(ap.Cols, f.Cond.Columns()) {
		return nil
	}
	return []core.Term{&core.Filter{Cond: f.Cond,
		T: &core.AntiProject{Cols: ap.Cols, T: f.T}}}
}

// π̃cols(a ⋈ b) → π̃cols(a) ⋈ b when the dropped columns appear only in a
// (so they are not join columns), and symmetrically.
func ruleAntiProjectPushJoin(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	ap, ok := t.(*core.AntiProject)
	if !ok {
		return nil
	}
	j, ok := ap.T.(*core.Join)
	if !ok {
		return nil
	}
	sl, sr := schemaOf(j.L, env), schemaOf(j.R, env)
	if sl == nil || sr == nil {
		return nil
	}
	var out []core.Term
	if subset(ap.Cols, sl) && disjoint(ap.Cols, sr) {
		out = append(out, &core.Join{L: &core.AntiProject{Cols: ap.Cols, T: j.L}, R: j.R})
	}
	if subset(ap.Cols, sr) && disjoint(ap.Cols, sl) {
		out = append(out, &core.Join{L: j.L, R: &core.AntiProject{Cols: ap.Cols, T: j.R}})
	}
	return out
}

// π̃cols(a ∪ b) → π̃cols(a) ∪ π̃cols(b)
func ruleAntiProjectPushUnion(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	ap, ok := t.(*core.AntiProject)
	if !ok {
		return nil
	}
	u, ok := ap.T.(*core.Union)
	if !ok {
		return nil
	}
	return []core.Term{&core.Union{
		L: &core.AntiProject{Cols: ap.Cols, T: u.L},
		R: &core.AntiProject{Cols: ap.Cols, T: u.R},
	}}
}

// ruleAntiProjectIntoFixpoint: π̃cols(µ(X = R ∪ φ)) → µ(X = π̃S(R) ∪ φ)
// for the subset S of dropped columns that φ never consults (§IV "Pushing
// antiprojections into fixpoints": unused columns are dropped before the
// recursion so they are never carried through the iterations).
func ruleAntiProjectIntoFixpoint(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	ap, ok := t.(*core.AntiProject)
	if !ok {
		return nil
	}
	fp, ok := ap.T.(*core.Fixpoint)
	if !ok {
		return nil
	}
	d, err := core.Decompose(fp)
	if err != nil {
		return nil
	}
	xCols := schemaOf(fp, env)
	if xCols == nil {
		return nil
	}
	envX := env.With(d.X, xCols)
	var pushable []string
	for _, c := range ap.Cols {
		untouched := true
		for _, br := range d.PhiBranches {
			if !colsUntouchedByPhi(br, d.X, []string{c}, envX) {
				untouched = false
				break
			}
		}
		if untouched {
			pushable = append(pushable, c)
		}
	}
	pushed := core.SortCols(pushable)
	// Pushing every column would leave the constant part, and so the
	// fixpoint, with no columns to iterate over.
	if len(pushed) == 0 || len(core.ColsMinus(xCols, pushed)) == 0 {
		return nil
	}
	nd := &core.Decomposed{
		X:           d.X,
		Const:       &core.AntiProject{Cols: pushed, T: d.Const},
		PhiBranches: d.PhiBranches,
	}
	inner := core.Term(nd.Fixpoint())
	rest := core.ColsMinus(ap.Cols, pushed)
	if len(rest) > 0 {
		inner = &core.AntiProject{Cols: rest, T: inner}
	}
	return []core.Term{inner}
}

// ruleReverseClosure: µ(X = E ∪ X∘E) ↔ µ(X = E ∪ E∘X) — the fixpoint
// reversal of §IV. E+ can be computed appending E on the right or on the
// left; the two plans have different stable columns, so reversal is what
// lets filters and joins on the target side be pushed.
func ruleReverseClosure(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	fp, ok := t.(*core.Fixpoint)
	if !ok {
		return nil
	}
	e, shape := core.MatchClosure(fp)
	if shape == core.ShapeNone {
		return nil
	}
	x := rw.FreshVar()
	if shape == core.ShapeLR {
		return []core.Term{core.ClosureRL(x, e)}
	}
	return []core.Term{core.ClosureLR(x, e)}
}

// matchFoldableRight matches a fixpoint usable on the right of a
// composition fold: a left-to-right linear fixpoint µ(X = R ∪ X∘E), or a
// pure closure in either direction (E+ ≡ both forms).
func matchFoldableRight(t core.Term) (r, e core.Term, ok bool) {
	fp, isFp := t.(*core.Fixpoint)
	if !isFp {
		return nil, nil, false
	}
	r, e, shape := core.MatchLinearFixpoint(fp)
	switch shape {
	case core.ShapeLR:
		return r, e, true
	case core.ShapeRL:
		if core.TermEqual(r, e) {
			return e, e, true
		}
	}
	return nil, nil, false
}

// matchFoldableLeft is the mirror image: µ(X = R ∪ E∘X) or a pure closure.
func matchFoldableLeft(t core.Term) (r, e core.Term, ok bool) {
	fp, isFp := t.(*core.Fixpoint)
	if !isFp {
		return nil, nil, false
	}
	r, e, shape := core.MatchLinearFixpoint(fp)
	switch shape {
	case core.ShapeRL:
		return r, e, true
	case core.ShapeLR:
		if core.TermEqual(r, e) {
			return e, e, true
		}
	}
	return nil, nil, false
}

// ruleFoldComposeRight: A ∘ µ(X = R ∪ X∘E) → µ(Z = (A∘R) ∪ Z∘E).
// Since µ(X = R ∪ X∘E) = R∘E*, we have A∘(R∘E*) = (A∘R)∘E*. This is the
// paper's "pushing joins into fixpoints": the recursion starts from the
// already-joined seed A∘R instead of materializing the whole fixpoint and
// joining afterwards.
func ruleFoldComposeRight(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	a, b, ok := core.MatchCompose(t)
	if !ok {
		return nil
	}
	r, e, ok := matchFoldableRight(b)
	if !ok || rw.mentionsBinder(a) {
		return nil
	}
	z := rw.FreshVar()
	out := &core.Fixpoint{X: z, Body: &core.Union{
		L: core.Compose(a, r),
		R: core.Compose(&core.Var{Name: z}, e),
	}}
	return []core.Term{out}
}

// ruleFoldComposeLeft: µ(X = R ∪ E∘X) ∘ A → µ(Z = (R∘A) ∪ E∘Z).
// Mirror of ruleFoldComposeRight: (E*∘R)∘A = E*∘(R∘A).
func ruleFoldComposeLeft(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	b, a, ok := core.MatchCompose(t)
	if !ok {
		return nil
	}
	r, e, ok := matchFoldableLeft(b)
	if !ok || rw.mentionsBinder(a) {
		return nil
	}
	z := rw.FreshVar()
	out := &core.Fixpoint{X: z, Body: &core.Union{
		L: core.Compose(r, a),
		R: core.Compose(e, &core.Var{Name: z}),
	}}
	return []core.Term{out}
}

// ruleMergeClosures: E1+ ∘ E2+ → µ(Z = E1∘E2 ∪ E1∘Z ∪ Z∘E2) — the paper's
// "merging fixpoints". A single recursion starts from E1∘E2 and appends
// E1 to the left or E2 to the right, producing {E1^i ∘ E2^j : i,j ≥ 1}
// without ever materializing either closure alone. Datalog engines cannot
// express this plan (§VI).
func ruleMergeClosures(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	l, r, ok := core.MatchCompose(t)
	if !ok {
		return nil
	}
	lfp, ok := l.(*core.Fixpoint)
	if !ok {
		return nil
	}
	rfp, ok := r.(*core.Fixpoint)
	if !ok {
		return nil
	}
	e1, s1 := core.MatchClosure(lfp)
	e2, s2 := core.MatchClosure(rfp)
	if s1 == core.ShapeNone || s2 == core.ShapeNone {
		return nil
	}
	z := rw.FreshVar()
	zv := &core.Var{Name: z}
	out := &core.Fixpoint{X: z, Body: core.UnionOf([]core.Term{
		core.Compose(e1, e2),
		core.Compose(e1, zv),
		core.Compose(zv, e2),
	})}
	return []core.Term{out}
}

// ruleJoinIntoFixpoint: B ⋈ µ(X = R ∪ φ) → µ(X = (B⋈R) ∪ φ) when the join
// columns are stable and φ never consults the extra columns B contributes.
// Every fixpoint tuple keeps its stable values from its seed tuple in R, so
// joining the seeds first and carrying B's extra columns through the
// untouched derivations yields the same set. This is the form that
// optimizes the paper's "Joined SG" queries (P ⋈ TSG on the stable pred
// column).
func ruleJoinIntoFixpoint(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	j, ok := t.(*core.Join)
	if !ok {
		return nil
	}
	var out []core.Term
	if nt := joinIntoFixpoint(rw, j.L, j.R, env); nt != nil {
		out = append(out, nt)
	}
	if nt := joinIntoFixpoint(rw, j.R, j.L, env); nt != nil {
		out = append(out, nt)
	}
	return out
}

func joinIntoFixpoint(rw *Rewriter, b, fpTerm core.Term, env core.SchemaEnv) core.Term {
	fp, ok := fpTerm.(*core.Fixpoint)
	if !ok {
		return nil
	}
	d, err := core.Decompose(fp)
	if err != nil {
		return nil
	}
	bCols := schemaOf(b, env)
	fpCols := schemaOf(fp, env)
	if bCols == nil || fpCols == nil {
		return nil
	}
	if core.ContainsVar(b, d.X) {
		return nil
	}
	common := core.ColsIntersect(bCols, fpCols)
	if len(common) == 0 {
		return nil
	}
	stable, err := core.StableCols(d, env)
	if err != nil || !subset(common, stable) {
		return nil
	}
	extra := core.ColsMinus(bCols, fpCols)
	if len(extra) > 0 {
		envX := env.With(d.X, core.ColsUnion(fpCols, extra))
		for _, br := range d.PhiBranches {
			if !colsUntouchedByPhi(br, d.X, extra, envX) {
				return nil
			}
		}
	}
	if rw.mentionsBinder(b) {
		return nil
	}
	nd := &core.Decomposed{
		X:           d.X,
		Const:       &core.Join{L: b, R: d.Const},
		PhiBranches: d.PhiBranches,
	}
	if bindsVar(b, d.X) {
		// b's own fixpoint reuses the binder; under µ(X) it would shadow X.
		nd.X = rw.FreshVar()
		nd.PhiBranches = make([]core.Term, len(d.PhiBranches))
		for i, br := range d.PhiBranches {
			nd.PhiBranches[i] = core.Substitute(br, d.X, &core.Var{Name: nd.X})
		}
	}
	return nd.Fixpoint()
}

// ruleComposeAssoc: (A∘B)∘C ↔ A∘(B∘C) — relation composition is
// associative; re-association exposes different fold and merge
// opportunities along UCRPQ concatenation chains.
func ruleComposeAssoc(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term {
	l, r, ok := core.MatchCompose(t)
	if !ok {
		return nil
	}
	var out []core.Term
	if il, ir, ok := core.MatchCompose(l); ok {
		out = append(out, core.Compose(il, core.Compose(ir, r)))
	}
	if il, ir, ok := core.MatchCompose(r); ok {
		out = append(out, core.Compose(core.Compose(l, il), ir))
	}
	return out
}

// --- helpers -----------------------------------------------------------------

// mentionsBinder reports whether t mentions a recursion variable of an
// enclosing fixpoint: a free name outside the rewriter's database schema.
// A rule moving such a t into a fixpoint would leave that variable free
// inside a nested fixpoint, which Fcond forbids.
func (rw *Rewriter) mentionsBinder(t core.Term) bool {
	for _, v := range core.FreeVars(t) {
		if _, db := rw.Env[v]; !db {
			return true
		}
	}
	return false
}

// bindsVar reports whether some fixpoint inside t binds x.
func bindsVar(t core.Term, x string) bool {
	found := false
	core.Walk(t, func(s core.Term) bool {
		if fp, ok := s.(*core.Fixpoint); ok && fp.X == x {
			found = true
		}
		return !found
	})
	return found
}

// renameCondCol rewrites references to column from into column to.
func renameCondCol(c core.Condition, from, to string) core.Condition {
	switch n := c.(type) {
	case core.EqConst:
		if n.Col == from {
			return core.EqConst{Col: to, Val: n.Val}
		}
		return n
	case core.NeConst:
		if n.Col == from {
			return core.NeConst{Col: to, Val: n.Val}
		}
		return n
	case core.EqCols:
		a, b := n.A, n.B
		if a == from {
			a = to
		}
		if b == from {
			b = to
		}
		return core.EqCols{A: a, B: b}
	case core.And:
		out := make(core.And, len(n))
		for i, s := range n {
			out[i] = renameCondCol(s, from, to)
		}
		return out
	case core.Or:
		out := make(core.Or, len(n))
		for i, s := range n {
			out[i] = renameCondCol(s, from, to)
		}
		return out
	default:
		return c
	}
}

// colsUntouchedByPhi reports whether, along every derivation path of the
// recursion variable x through the φ branch t, none of the given columns is
// filtered on, renamed (source or target), dropped, or shared with a
// constant join/antijoin operand. When true, those columns ride through
// the recursion untouched: they can be dropped before the fixpoint
// (anti-projection pushing) or added to it (join pushing) without changing
// its semantics.
func colsUntouchedByPhi(t core.Term, x string, cols []string, env core.SchemaEnv) bool {
	onX, ok := untouchedWalk(t, x, cols, env)
	return onX && ok
}

func untouchedWalk(t core.Term, x string, cols []string, env core.SchemaEnv) (onX, ok bool) {
	switch n := t.(type) {
	case *core.Var:
		return n.Name == x, true
	case *core.ConstTuple:
		return false, true
	case *core.Filter:
		onX, ok = untouchedWalk(n.T, x, cols, env)
		if onX && !disjoint(n.Cond.Columns(), cols) {
			return onX, false
		}
		return onX, ok
	case *core.Rename:
		onX, ok = untouchedWalk(n.T, x, cols, env)
		if onX && (core.ColIndex(cols, n.From) >= 0 || core.ColIndex(cols, n.To) >= 0) {
			return onX, false
		}
		return onX, ok
	case *core.AntiProject:
		onX, ok = untouchedWalk(n.T, x, cols, env)
		if onX && !disjoint(n.Cols, cols) {
			return onX, false
		}
		return onX, ok
	case *core.Join, *core.Antijoin:
		var l, r core.Term
		if j, isJ := n.(*core.Join); isJ {
			l, r = j.L, j.R
		} else {
			aj := n.(*core.Antijoin)
			l, r = aj.L, aj.R
		}
		lOn, lOk := untouchedWalk(l, x, cols, env)
		rOn, rOk := untouchedWalk(r, x, cols, env)
		if !lOk || !rOk {
			return lOn || rOn, false
		}
		if lOn {
			rs := schemaOf(r, env)
			return true, rs != nil && disjoint(rs, cols)
		}
		if rOn {
			ls := schemaOf(l, env)
			return true, ls != nil && disjoint(ls, cols)
		}
		return false, true
	case *core.Union:
		lOn, lOk := untouchedWalk(n.L, x, cols, env)
		rOn, rOk := untouchedWalk(n.R, x, cols, env)
		return lOn || rOn, lOk && rOk
	case *core.Fixpoint:
		// Fcond forbids x free inside nested fixpoints.
		return false, true
	default:
		return false, false
	}
}
