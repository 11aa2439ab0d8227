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
// Exploration is a breadth-first saturation with alpha-renaming-aware
// deduplication, capped by MaxPlans. Individual rules can be disabled for
// the ablation benchmarks.
package rewrite

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Rule proposes rewrites of the root node of a term. Rules must be sound:
// every proposed term must be semantically equivalent to the input on all
// databases.
type Rule struct {
	Name  string
	Apply func(rw *Rewriter, t core.Term, env core.SchemaEnv) []core.Term
}

// Rewriter explores the space of equivalent logical plans.
type Rewriter struct {
	// Env gives the schemas of the free (database) relation variables.
	Env core.SchemaEnv
	// MaxPlans caps the size of the explored plan space (default 512).
	MaxPlans int
	// Disabled names rules to skip (ablation studies).
	Disabled map[string]bool

	// AuditViolations counts rule applications that failed AuditRule
	// (see audit.go) and were discarded instead of entering the plan
	// space. Always zero for a sound rule set; the testkit asserts on it.
	AuditViolations int
	// DroppedIllFormed counts full candidate terms discarded because,
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
}

// NewRewriter returns a rewriter with the full Dist-µ-RA rule set.
func NewRewriter(env core.SchemaEnv) *Rewriter {
	return &Rewriter{Env: env, MaxPlans: 512, rules: AllRules()}
}

// FreshVar returns a recursion-variable name unused by any rule-generated
// term of this rewriter.
func (rw *Rewriter) FreshVar() string {
	rw.fresh++
	return fmt.Sprintf("µ%d", rw.fresh)
}

func (rw *Rewriter) maxPlans() int {
	if rw.MaxPlans <= 0 {
		return 512
	}
	return rw.MaxPlans
}

// Explore returns the plan space of t: t itself followed by every distinct
// term reachable through rule applications, in BFS order, capped at
// MaxPlans. Terms differing only in bound-variable names are identified.
func (rw *Rewriter) Explore(t core.Term) []core.Term {
	seen := map[string]bool{alphaKey(t): true}
	plans := []core.Term{t}
	queue := []core.Term{t}
	for len(queue) > 0 && len(plans) < rw.maxPlans() {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range rw.Neighbors(cur) {
			k := alphaKey(next)
			if seen[k] {
				continue
			}
			seen[k] = true
			plans = append(plans, next)
			queue = append(queue, next)
			if len(plans) >= rw.maxPlans() {
				break
			}
		}
	}
	return plans
}

// Neighbors returns all terms reachable from t by one rule application at
// any position.
func (rw *Rewriter) Neighbors(t core.Term) []core.Term {
	var out []core.Term
	rw.rewriteAt(t, rw.Env, func(nt core.Term) {
		// The per-application audit in rewriteAt checks the rewritten
		// subterm in its local env; the composed term can still be
		// globally ill-formed (Fcond of an enclosing fixpoint). Only
		// checked plans enter the plan space.
		if _, err := core.Schema(nt, rw.Env); err != nil {
			rw.DroppedIllFormed++
			return
		}
		out = append(out, nt)
	})
	return out
}

func (rw *Rewriter) rewriteAt(t core.Term, env core.SchemaEnv, emit func(core.Term)) {
	for _, rule := range rw.rules {
		if rw.Disabled[rule.Name] {
			continue
		}
		for _, nt := range rule.Apply(rw, t, env) {
			// Certify the application before the candidate may enter the
			// plan space: the output must check, preserve the schema,
			// and the rule's side condition must have held on the input.
			if diags := AuditRule(rule.Name, t, nt, env); len(diags) > 0 {
				rw.AuditViolations++
				rw.LastAudit = diags
				continue
			}
			emit(nt)
		}
	}
	ch := core.Children(t)
	if len(ch) == 0 {
		return
	}
	childEnv := env
	if fp, ok := t.(*core.Fixpoint); ok {
		cols, err := core.Schema(fp, env)
		if err != nil {
			return // ill-formed below here; no rewrites
		}
		childEnv = env.With(fp.X, cols)
	}
	for i, c := range ch {
		i := i
		rw.rewriteAt(c, childEnv, func(nc core.Term) {
			nch := make([]core.Term, len(ch))
			copy(nch, ch)
			nch[i] = nc
			emit(core.WithChildren(t, nch))
		})
	}
}

// alphaKey prints a term with bound fixpoint variables renamed in visit
// order, so alpha-equivalent plans deduplicate.
func alphaKey(t core.Term) string {
	var sb strings.Builder
	var n int
	var visit func(t core.Term, bound map[string]string)
	visit = func(t core.Term, bound map[string]string) {
		switch node := t.(type) {
		case *core.Var:
			if b, ok := bound[node.Name]; ok {
				sb.WriteString(b)
			} else {
				sb.WriteString(node.Name)
			}
		case *core.Fixpoint:
			n++
			alias := fmt.Sprintf("µ%d", n)
			nb := map[string]string{node.X: alias}
			for k, v := range bound {
				if k != node.X {
					nb[k] = v
				}
			}
			sb.WriteString("µ(" + alias + "=")
			visit(node.Body, nb)
			sb.WriteString(")")
		case *core.Union:
			sb.WriteString("(")
			visit(node.L, bound)
			sb.WriteString("∪")
			visit(node.R, bound)
			sb.WriteString(")")
		case *core.Join:
			sb.WriteString("(")
			visit(node.L, bound)
			sb.WriteString("⋈")
			visit(node.R, bound)
			sb.WriteString(")")
		case *core.Antijoin:
			sb.WriteString("(")
			visit(node.L, bound)
			sb.WriteString("▷")
			visit(node.R, bound)
			sb.WriteString(")")
		case *core.Filter:
			sb.WriteString("σ[" + node.Cond.String() + "](")
			visit(node.T, bound)
			sb.WriteString(")")
		case *core.Rename:
			sb.WriteString("ρ[" + node.From + ">" + node.To + "](")
			visit(node.T, bound)
			sb.WriteString(")")
		case *core.AntiProject:
			sb.WriteString("π[" + strings.Join(node.Cols, ",") + "](")
			visit(node.T, bound)
			sb.WriteString(")")
		default:
			sb.WriteString(t.String())
		}
	}
	visit(t, map[string]string{})
	return sb.String()
}
