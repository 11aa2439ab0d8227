// Package rewrite implements the MuRewriter of Dist-µ-RA (§IV): it
// explores the space of logical plans semantically equivalent to a µ-RA
// term by applying classical relational-algebra rewritings together with
// the five fixpoint-specific rules of the paper:
//
//   - pushing filters into fixpoints (sound on stable columns),
//   - pushing joins into fixpoints (both the stable-column form and the
//     composition folds A∘E+ → µ(Z = A∘E ∪ Z∘E) that start a recursion
//     from an already-restricted seed),
//   - merging fixpoints (E1+∘E2+ → a single fixpoint appending E1 on the
//     left or E2 on the right),
//   - pushing anti-projections into fixpoints (dropping columns that the
//     recursion never consults, so they are never materialized),
//   - reversing fixpoints (E+ evaluated left-to-right ↔ right-to-left,
//     which flips which column is stable and therefore which filters and
//     joins can be pushed).
//
// Exploration is a breadth-first saturation capped by MaxPlans, run over a
// memo (memo.go) that interns every plan and subterm: alpha-equivalent
// terms are one node, and rules, audits, plan checks and free variables
// run once per node. Individual rules can be disabled for the ablation
// benchmarks.
package rewrite

import (
	"fmt"

	"repro/internal/core"
)

// Rule proposes rewrites of the root node of a term. Rules must be sound:
// every proposed term must be semantically equivalent to the input on all
// databases.
type Rule struct {
	Name  string
	Apply func(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term
}

// DefaultMaxPlans is the plan-space cap per translation direction when
// MaxPlans is not set: the engine's, the benchmark harness's and a new
// Rewriter's.
const DefaultMaxPlans = 96

// Rewriter explores the space of equivalent logical plans. Its memo lives
// as long as the rewriter (one optimize call), so Env and Disabled must be
// set before the first exploration.
type Rewriter struct {
	// Env gives the schemas of the free (database) relation variables.
	Env core.SchemaEnv
	// MaxPlans caps the size of the explored plan space (default
	// DefaultMaxPlans).
	MaxPlans int
	// Disabled names rules to skip (ablation studies).
	Disabled map[string]bool

	// AuditViolations counts rule applications that failed AuditRule
	// (see audit.go) and were discarded instead of entering the plan
	// space. Always zero for a sound rule set; the testkit asserts on it.
	AuditViolations int
	// DroppedIllFormed counts distinct candidate plans discarded because,
	// although each rule application was locally sound, the composed
	// term fails core.Schema — e.g. a rule moving a term that mentions
	// an enclosing recursion variable into a nested fixpoint. The rules
	// decline those moves, so this stays zero; it is the net under them.
	DroppedIllFormed int
	// LastAudit retains the diagnostics of the most recent discarded
	// candidate, for debugging a non-zero AuditViolations.
	LastAudit []core.Diagnostic

	fresh int
	rules []Rule
	m     *memo
}

// NewRewriter returns a rewriter with the full Dist-µ-RA rule set.
func NewRewriter(env core.SchemaEnv) *Rewriter {
	return &Rewriter{Env: env, MaxPlans: DefaultMaxPlans, rules: AllRules()}
}

// FreshVar returns a recursion-variable name unused by any rule-generated
// term of this rewriter.
func (rw *Rewriter) FreshVar() string {
	rw.fresh++
	return fmt.Sprintf("µ%d", rw.fresh)
}

func (rw *Rewriter) maxPlans() int {
	if rw.MaxPlans <= 0 {
		return DefaultMaxPlans
	}
	return rw.MaxPlans
}

func (rw *Rewriter) memo() *memo {
	if rw.m == nil {
		rw.m = newMemo(rw)
	}
	return rw.m
}

// Explore returns the plan space of t: t itself followed by every distinct
// term reachable through rule applications, in BFS order, capped at
// MaxPlans. Terms differing only in bound-variable names are one plan, and
// every returned term binds canonical names (see memo.go).
func (rw *Rewriter) Explore(t core.Term) []core.Term {
	m := rw.memo()
	return m.terms(rw.explore(m, t))
}

func (rw *Rewriter) explore(m *memo, t core.Term) []nodeID {
	root := m.intern(t)
	seen := map[nodeID]bool{root: true}
	plans := []nodeID{root}
	for next := 0; next < len(plans) && len(plans) < rw.maxPlans(); next++ {
		for _, id := range m.rewrites(plans[next], nil) {
			if seen[id] {
				continue
			}
			seen[id] = true
			// The per-application audit checks the rewritten subterm in
			// its local env; the composed plan can still be globally
			// ill-formed (Fcond of an enclosing fixpoint). Only checked
			// plans enter the plan space.
			if _, ok := m.check(id, nil); !ok {
				rw.DroppedIllFormed++
				continue
			}
			plans = append(plans, id)
			if len(plans) >= rw.maxPlans() {
				break
			}
		}
	}
	return plans
}

// ExploreBoth returns the plan space of a query translated in both
// directions: the space explored from its left-to-right translation ltr,
// followed by the plans explored from its right-to-left translation rtl
// that are not alpha-equivalent to a plan before them. Both explorations
// share the memo, and each is capped at MaxPlans on its own.
func (rw *Rewriter) ExploreBoth(ltr, rtl core.Term) []core.Term {
	m := rw.memo()
	plans := rw.explore(m, ltr)
	seen := make(map[nodeID]bool, len(plans))
	for _, id := range plans {
		seen[id] = true
	}
	for _, id := range rw.explore(m, rtl) {
		if !seen[id] {
			plans = append(plans, id)
			seen[id] = true
		}
	}
	return m.terms(plans)
}

// Neighbors returns all well-formed terms reachable from t by one rule
// application at any position.
func (rw *Rewriter) Neighbors(t core.Term) []core.Term {
	m := rw.memo()
	var out []nodeID
	for _, id := range m.rewrites(m.intern(t), nil) {
		if _, ok := m.check(id, nil); !ok {
			rw.DroppedIllFormed++
			continue
		}
		out = append(out, id)
	}
	return m.terms(out)
}
