package datalog

import (
	"fmt"
	"strings"
)

// MagicTransform rewrites prog for goal-directed evaluation of the query
// atom using the magic-sets technique (Bancilhon et al., PODS 1986) with
// left-to-right sideways information passing: the query's constant
// arguments seed a magic predicate; every adorned rule is guarded by the
// magic set of its head, and magic propagation rules push bindings through
// the body prefix into recursive calls.
//
// The returned query atom references the adorned predicate. When the query
// has no bound argument the program is returned unchanged — exactly the
// situation in which a Datalog engine materializes the full recursion.
//
// Like BigDatalog (and unlike the µ-RA rewriter), the transformation is
// sensitive to the direction the program is written in: a binding on the
// pass-through argument of a linear recursion restricts the whole
// computation, while a binding on the churned argument propagates nothing
// useful (the paper's class C2 versus C3 asymmetry).
func MagicTransform(prog *Program, query Atom) (*Program, Atom, error) {
	idb := prog.IDB()
	if !idb[query.Pred] {
		return prog, query, nil
	}
	qa := adornmentOf(query)
	if !strings.Contains(qa, "b") {
		return prog, query, nil
	}
	out := &Program{}
	type job struct {
		pred, ad string
	}
	seen := map[job]bool{}
	var queue []job
	enqueue := func(p, ad string) {
		j := job{p, ad}
		if !seen[j] {
			seen[j] = true
			queue = append(queue, j)
		}
	}
	enqueue(query.Pred, qa)

	// Seed: the magic fact for the query's bound constants.
	var seedArgs []Arg
	for i, ar := range query.Args {
		if qa[i] == 'b' {
			if ar.IsVar {
				return nil, Atom{}, fmt.Errorf("datalog: internal: bound query arg %d is a variable", i)
			}
			seedArgs = append(seedArgs, ar)
		}
	}
	out.Rules = append(out.Rules, Rule{Head: Atom{Pred: magicName(query.Pred, qa), Args: seedArgs}})

	rulesByHead := map[string][]Rule{}
	for _, r := range prog.Rules {
		rulesByHead[r.Head.Pred] = append(rulesByHead[r.Head.Pred], r)
	}

	emittedFree := map[string]bool{}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		if !strings.Contains(j.ad, "b") {
			// All-free call: carry the original (unguarded) rules over.
			adornAllFree(prog, j.pred, idb, emittedFree, out)
			continue
		}
		for _, r := range rulesByHead[j.pred] {
			adorned, magicRules, calls, err := adornRule(r, j.ad, idb)
			if err != nil {
				return nil, Atom{}, err
			}
			out.Rules = append(out.Rules, adorned)
			out.Rules = append(out.Rules, magicRules...)
			for _, c := range calls {
				enqueue(c.pred, c.ad)
			}
		}
	}
	nq := Atom{Pred: adornedName(query.Pred, qa), Args: query.Args}
	return out, nq, nil
}

func adornmentOf(q Atom) string {
	var sb strings.Builder
	for _, ar := range q.Args {
		if ar.IsVar {
			sb.WriteByte('f')
		} else {
			sb.WriteByte('b')
		}
	}
	return sb.String()
}

func adornedName(pred, ad string) string {
	if !strings.Contains(ad, "b") {
		return pred // all-free adornment keeps the original predicate
	}
	return pred + "__" + ad
}

func magicName(pred, ad string) string { return "m_" + pred + "__" + ad }

type adornedCall struct {
	pred, ad string
}

// adornRule produces the guarded adorned version of r for the head
// adornment ad, plus the magic propagation rules for the IDB calls in its
// body, plus the adorned calls to process next.
func adornRule(r Rule, ad string, idb map[string]bool) (Rule, []Rule, []adornedCall, error) {
	if len(ad) != len(r.Head.Args) {
		return Rule{}, nil, nil, fmt.Errorf("datalog: adornment %s does not fit %s", ad, r.Head)
	}
	bound := map[string]bool{}
	var guardArgs []Arg
	for i, ar := range r.Head.Args {
		if ad[i] == 'b' {
			guardArgs = append(guardArgs, ar)
			if ar.IsVar {
				bound[ar.Var] = true
			}
		}
	}
	guard := Atom{Pred: magicName(r.Head.Pred, ad), Args: guardArgs}
	newBody := []Atom{guard}
	var magicRules []Rule
	var calls []adornedCall
	prefix := []Atom{guard}
	for _, a := range r.Body {
		if idb[a.Pred] {
			// Adornment of this call given what is bound so far.
			var sb strings.Builder
			var magicArgs []Arg
			for _, ar := range a.Args {
				if !ar.IsVar || bound[ar.Var] {
					sb.WriteByte('b')
					magicArgs = append(magicArgs, ar)
				} else {
					sb.WriteByte('f')
				}
			}
			callAd := sb.String()
			calls = append(calls, adornedCall{a.Pred, callAd})
			renamed := Atom{Pred: adornedName(a.Pred, callAd), Args: a.Args}
			if strings.Contains(callAd, "b") {
				// Magic propagation: the bindings reaching this call.
				mr := Rule{
					Head: Atom{Pred: magicName(a.Pred, callAd), Args: magicArgs},
					Body: append([]Atom{}, prefix...),
				}
				magicRules = append(magicRules, mr)
			}
			newBody = append(newBody, renamed)
			prefix = append(prefix, renamed)
		} else {
			newBody = append(newBody, a)
			prefix = append(prefix, a)
		}
		for _, ar := range a.Args {
			if ar.IsVar {
				bound[ar.Var] = true
			}
		}
	}
	adorned := Rule{
		Head: Atom{Pred: adornedName(r.Head.Pred, ad), Args: r.Head.Args},
		Body: newBody,
	}
	return adorned, magicRules, calls, nil
}

// adornAllFree handles calls with all-free adornment: the original rules of
// the called predicate must be carried over (transitively). MagicTransform
// relies on adornedName keeping the original predicate name for all-free
// adornments, and this helper copies the original rule bodies with their
// IDB calls left unadorned.
func adornAllFree(prog *Program, pred string, idb map[string]bool, emitted map[string]bool, out *Program) {
	if emitted[pred] {
		return
	}
	emitted[pred] = true
	for _, r := range prog.Rules {
		if r.Head.Pred != pred {
			continue
		}
		out.Rules = append(out.Rules, r)
		for _, a := range r.Body {
			if idb[a.Pred] {
				adornAllFree(prog, a.Pred, idb, emitted, out)
			}
		}
	}
}
