package rewrite

import (
	"fmt"

	"repro/internal/core"
)

// This file holds the side conditions the memo re-derives when it
// certifies a rule application (memo.certify): the output must check and
// keep the input's columns, and a rule that pushes an operator into a
// fixpoint must have found its §III side condition true on the input, so
// a buggy or future rule cannot silently smuggle an unsound plan into the
// space.

// Codes of the rule-certification diagnostics, beside core's checker
// codes.
const (
	// CodeRuleSideCond is a fired rewrite rule whose paper side
	// condition did not hold on the input term.
	CodeRuleSideCond core.Code = "rule-side-condition"
	// CodeRuleSchema is a fired rewrite rule that changed the term's
	// output schema (every µ-RA rewrite is schema-preserving).
	CodeRuleSchema core.Code = "rule-schema-changed"
	// CodeRuleOutput is a fired rewrite rule whose output does not check.
	CodeRuleOutput core.Code = "rule-output-ill-formed"
)

// VerifyErr is core.Schema's verdict on t under env, for callers that
// want only the error.
func VerifyErr(t core.Term, env core.SchemaEnv) error {
	_, err := core.Schema(t, env)
	return err
}

// sideCondition re-derives the per-rule side condition on the input term
// for the three fixpoint-pushing rules, and says why it failed; it
// returns "" when it held. Rules without extra conditions (the classical
// pushdowns and compositions) are covered by the output check and schema
// preservation alone.
func sideCondition(name string, in, out core.Term, env core.SchemaEnv) string {
	switch name {
	case "filter-into-fixpoint":
		// σf(µ(X = R ∪ φ)) → µ(X = σf(R) ∪ φ) requires cols(f) ⊆ the
		// fixpoint's stable columns (§III distributivity).
		f, ok := in.(*core.Filter)
		if !ok {
			return "input is not a filter"
		}
		fp, ok := f.T.(*core.Fixpoint)
		if !ok {
			return "filter input is not a fixpoint"
		}
		d, err := core.Decompose(fp)
		if err != nil {
			return fmt.Sprintf("input fixpoint does not decompose: %v", err)
		}
		stable, err := core.StableCols(d, env)
		if err != nil {
			return fmt.Sprintf("stable columns unavailable: %v", err)
		}
		if !subset(f.Cond.Columns(), stable) {
			return fmt.Sprintf("filter columns %v not all stable (stable: %v)", f.Cond.Columns(), stable)
		}

	case "join-into-fixpoint":
		// B ⋈ µ(X = R ∪ φ) → µ(X = (B ⋈ R) ∪ φ) requires the join
		// columns stable and B's extra columns untouched by φ
		// (§III decomposability).
		j, ok := in.(*core.Join)
		if !ok {
			return "input is not a join"
		}
		if !joinSideConditionHolds(j.L, j.R, env) && !joinSideConditionHolds(j.R, j.L, env) {
			return "no operand orientation satisfies the stable-join/untouched-extra condition"
		}

	case "antiproject-into-fixpoint":
		// π̃c(µ(X = R ∪ φ)) → µ(X = π̃c(R) ∪ φ) for the pushed columns c
		// requires every pushed column untouched by φ.
		ap, ok := in.(*core.AntiProject)
		if !ok {
			return "input is not an anti-projection"
		}
		fp, ok := ap.T.(*core.Fixpoint)
		if !ok {
			return "anti-projection input is not a fixpoint"
		}
		pushed, ok := pushedAntiProjectCols(out)
		if !ok {
			return "output does not have the pushed µ(X = π̃(R) ∪ φ) shape"
		}
		d, err := core.Decompose(fp)
		if err != nil {
			return fmt.Sprintf("input fixpoint does not decompose: %v", err)
		}
		xCols, err := core.Schema(fp, env)
		if err != nil {
			return fmt.Sprintf("input fixpoint schema unavailable: %v", err)
		}
		envX := env.With(d.X, xCols)
		for _, c := range pushed {
			if core.ColIndex(ap.Cols, c) < 0 {
				return fmt.Sprintf("output pushes column %q the input never dropped", c)
			}
			for _, br := range d.PhiBranches {
				if !colsUntouchedByPhi(br, d.X, []string{c}, envX) {
					return fmt.Sprintf("pushed column %q is touched by the recursive part", c)
				}
			}
		}
	}
	return ""
}

// joinSideConditionHolds checks the join-into-fixpoint condition for
// the orientation (b ⋈ fp).
func joinSideConditionHolds(b, fpTerm core.Term, env core.SchemaEnv) bool {
	fp, ok := fpTerm.(*core.Fixpoint)
	if !ok {
		return false
	}
	d, err := core.Decompose(fp)
	if err != nil {
		return false
	}
	bCols, err := core.Schema(b, env)
	if err != nil {
		return false
	}
	fpCols, err := core.Schema(fp, env)
	if err != nil {
		return false
	}
	if core.ContainsVar(b, d.X) {
		return false
	}
	common := core.ColsIntersect(bCols, fpCols)
	if len(common) == 0 {
		return false
	}
	stable, err := core.StableCols(d, env)
	if err != nil || !subset(common, stable) {
		return false
	}
	extra := core.ColsMinus(bCols, fpCols)
	if len(extra) > 0 {
		envX := env.With(d.X, core.ColsUnion(fpCols, extra))
		for _, br := range d.PhiBranches {
			if !colsUntouchedByPhi(br, d.X, extra, envX) {
				return false
			}
		}
	}
	return true
}

// pushedAntiProjectCols extracts, from the output of
// antiproject-into-fixpoint, the column set that was pushed into the
// fixpoint's constant part. The output is µ(X = π̃(R) ∪ φ), optionally
// under a residual outer π̃.
func pushedAntiProjectCols(out core.Term) ([]string, bool) {
	t := out
	if ap, ok := t.(*core.AntiProject); ok {
		t = ap.T
	}
	fp, ok := t.(*core.Fixpoint)
	if !ok {
		return nil, false
	}
	for _, br := range core.UnionBranches(fp.Body) {
		if core.ContainsVar(br, fp.X) {
			continue
		}
		if ap, ok := br.(*core.AntiProject); ok {
			return ap.Cols, true
		}
	}
	return nil, false
}
