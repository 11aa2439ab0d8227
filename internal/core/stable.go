package core

import "fmt"

// StableCols computes the stable columns of a decomposed fixpoint
// µ(X = R ∪ φ) (§III-B of the paper): the columns c of the fixpoint schema
// such that every tuple e of the fixpoint takes its value at c from some
// tuple r of R (e(c) = r(c)).
//
// The analysis is static and bottom-up on each branch of φ, tracking which
// columns of the recursive variable X flow to the output unchanged:
//
//   - X itself: every column of X is (so far) stable;
//   - σf(t): stability is unchanged (filtering only removes tuples);
//   - ρ^b_a(t): both a and b lose stability (a's values now appear under a
//     different name, and b's values — if b is introduced — do not come
//     from X's column b);
//   - π̃a(t): a is removed;
//   - t ⋈ c / t ▷ c with c constant in X: the X-side stability is kept
//     (joins restrict and extend tuples but do not alter surviving values);
//     columns contributed only by c are not stable;
//   - branches are intersected (a column must be stable along every
//     recursive derivation).
//
// A partitioning of R by a stable column makes the split fixpoints
// µ(X = Ri ∪ φ) pairwise disjoint, so the final duplicate-eliminating union
// can be skipped (proof in §III-B).
func StableCols(d *Decomposed, env SchemaEnv) ([]string, error) {
	xCols, err := Schema(d.Const, env)
	if err != nil {
		return nil, err
	}
	if len(d.PhiBranches) == 0 {
		// No recursion: the fixpoint equals R and every column is stable.
		return xCols, nil
	}
	envX := env.With(d.X, xCols)
	stable := map[string]bool{}
	for _, c := range xCols {
		stable[c] = true
	}
	for _, br := range d.PhiBranches {
		s, onX, err := stableOfBranch(br, d.X, xCols, envX)
		if err != nil {
			return nil, err
		}
		if !onX {
			return nil, fmt.Errorf("core: φ branch %s does not contain %s", br, d.X)
		}
		for c := range stable {
			if !s[c] {
				delete(stable, c)
			}
		}
	}
	var out []string
	for _, c := range xCols {
		if stable[c] {
			out = append(out, c)
		}
	}
	return out, nil
}

// stableOfBranch returns the set of X-columns that remain stable through
// term t, and whether t contains X at all.
func stableOfBranch(t Term, x string, xCols []string, env SchemaEnv) (map[string]bool, bool, error) {
	switch n := t.(type) {
	case *Var:
		if n.Name == x {
			s := make(map[string]bool, len(xCols))
			for _, c := range xCols {
				s[c] = true
			}
			return s, true, nil
		}
		return nil, false, nil
	case *ConstTuple:
		return nil, false, nil
	case *Filter:
		return stableOfBranch(n.T, x, xCols, env)
	case *Rename:
		s, onX, err := stableOfBranch(n.T, x, xCols, env)
		if err != nil || !onX {
			return s, onX, err
		}
		delete(s, n.From)
		delete(s, n.To)
		return s, true, nil
	case *AntiProject:
		s, onX, err := stableOfBranch(n.T, x, xCols, env)
		if err != nil || !onX {
			return s, onX, err
		}
		for _, c := range n.Cols {
			delete(s, c)
		}
		return s, true, nil
	case *Join:
		ls, lOn, err := stableOfBranch(n.L, x, xCols, env)
		if err != nil {
			return nil, false, err
		}
		rs, rOn, err := stableOfBranch(n.R, x, xCols, env)
		if err != nil {
			return nil, false, err
		}
		if lOn {
			return ls, true, nil
		}
		if rOn {
			return rs, true, nil
		}
		return nil, false, nil
	case *Antijoin:
		// Positivity guarantees X is not in n.R.
		return stableOfBranch(n.L, x, xCols, env)
	case *Union:
		ls, lOn, err := stableOfBranch(n.L, x, xCols, env)
		if err != nil {
			return nil, false, err
		}
		rs, rOn, err := stableOfBranch(n.R, x, xCols, env)
		if err != nil {
			return nil, false, err
		}
		switch {
		case lOn && rOn:
			for c := range ls {
				if !rs[c] {
					delete(ls, c)
				}
			}
			return ls, true, nil
		case lOn || rOn:
			// A union mixing an X branch with a constant branch inside φ
			// would break φ(∅)=∅; be conservative: nothing is stable.
			return map[string]bool{}, true, nil
		default:
			return nil, false, nil
		}
	case *Fixpoint:
		// Fcond forbids free X inside nested fixpoints; treat as constant.
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("core: stable-column analysis: unknown term %T", t)
	}
}

// StableColsOf is a convenience wrapper decomposing fp first.
func StableColsOf(fp *Fixpoint, env SchemaEnv) ([]string, error) {
	d, err := Decompose(fp)
	if err != nil {
		return nil, err
	}
	return StableCols(d, env)
}
