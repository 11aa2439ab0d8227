package benchkit

import (
	"repro/internal/core"
	"repro/internal/datalog"
)

// This file builds the class-C7 (non-regular) queries of §V-D in each
// system's native form: µ-RA terms for Dist-µ-RA, Datalog programs for the
// BigDatalog stand-in. (The Pregel forms are vertex programs in
// internal/pregel.)

// AnBnTerm builds the µ-RA term of the paper's anbn query over the triple
// relation rel: pairs connected by n a-edges followed by n b-edges,
//
//	µ(X = a∘b ∪ a∘X∘b)
//
// where a = σ_pred=a(rel) and b = σ_pred=b(rel) projected to (src,trg).
func AnBnTerm(rel string, dict *core.Dict, labelA, labelB string) core.Term {
	a := core.EdgeRel(rel, dict.Intern(labelA))
	b := core.EdgeRel(rel, dict.Intern(labelB))
	xv := &core.Var{Name: "Xab"}
	return &core.Fixpoint{X: "Xab", Body: &core.Union{
		L: core.Compose(a, b),
		R: core.Compose(a, core.Compose(xv, b)),
	}}
}

// SGTerm builds the same-generation term TSG over the triple relation rel,
// keeping the predicate column so that it remains a stable column (the
// paper's Filtered/Joined SG setting): tuples (pred, src, trg) such that
// src and trg hang at the same depth below a common ancestor along
// pred-labeled edges.
//
// Base:  e(pred,p,x) ⋈ e(pred,p,y)          → (pred,x,y)
// Step:  e(pred,p,x) ⋈ X(pred,p,q) ⋈ e(pred,q,y) → (pred,x,y)
func SGTerm(rel string) core.Term {
	// e as (pred, parent=@p, child=src|trg …) via renames of rel(src,pred,trg).
	edge := func(parentCol, childCol string) core.Term {
		t := core.Term(&core.Var{Name: rel})
		t = &core.Rename{From: core.ColSrc, To: parentCol, T: t}
		t = &core.Rename{From: core.ColTrg, To: childCol, T: t}
		return t
	}
	x := "Xsg"
	// Base: parents shared through column @p.
	base := core.Term(&core.Join{
		L: edge("@p", core.ColSrc),
		R: edge("@p", core.ColTrg),
	})
	base = &core.AntiProject{Cols: []string{"@p"}, T: base}
	// Step: X renamed to (pred, @p, @q).
	xren := core.Term(&core.Var{Name: x})
	xren = &core.Rename{From: core.ColSrc, To: "@p", T: xren}
	xren = &core.Rename{From: core.ColTrg, To: "@q", T: xren}
	step := core.Term(&core.Join{
		L: edge("@p", core.ColSrc),
		R: &core.Join{L: xren, R: edge("@q", core.ColTrg)},
	})
	step = &core.AntiProject{Cols: []string{"@p", "@q"}, T: step}
	return &core.Fixpoint{X: x, Body: &core.Union{L: base, R: step}}
}

// FilteredSGTerm is σ_pred=label(TSG): same generation for one predicate.
// The filter sits outside the fixpoint; the rewriter can push it through
// the stable pred column.
func FilteredSGTerm(rel string, dict *core.Dict, label string) core.Term {
	return &core.Filter{
		Cond: core.EqConst{Col: core.ColPred, Val: dict.Intern(label)},
		T:    SGTerm(rel),
	}
}

// JoinedSGTerm is P ⋈ TSG for a unary predicate set P (bound in the Env
// under pName with schema {pred}).
func JoinedSGTerm(rel, pName string) core.Term {
	return &core.Join{L: &core.Var{Name: pName}, R: SGTerm(rel)}
}

// PredSetRelation builds the unary (pred) relation for Joined SG.
func PredSetRelation(dict *core.Dict, labels []string) *core.Relation {
	out := core.NewRelation(core.ColPred)
	for _, l := range labels {
		out.Add([]core.Value{dict.Intern(l)})
	}
	return out
}

// AnBnProgram is the Datalog form of anbn over the EDB triple predicate g:
//
//	ab(X,Y) :- g(X,a,Z), g(Z,b,Y).
//	ab(X,Y) :- g(X,a,Z), ab(Z,W), g(W,b,Y).
func AnBnProgram(edge string, dict *core.Dict, labelA, labelB string) (*datalog.Program, datalog.Atom) {
	a := datalog.C(dict.Intern(labelA))
	b := datalog.C(dict.Intern(labelB))
	v := datalog.V
	prog := &datalog.Program{Rules: []datalog.Rule{
		{Head: datalog.NewAtom("ab", v("X"), v("Y")), Body: []datalog.Atom{
			datalog.NewAtom(edge, v("X"), a, v("Z")),
			datalog.NewAtom(edge, v("Z"), b, v("Y")),
		}},
		{Head: datalog.NewAtom("ab", v("X"), v("Y")), Body: []datalog.Atom{
			datalog.NewAtom(edge, v("X"), a, v("Z")),
			datalog.NewAtom("ab", v("Z"), v("W")),
			datalog.NewAtom(edge, v("W"), b, v("Y")),
		}},
	}}
	return prog, datalog.NewAtom("ab", v("X"), v("Y"))
}

// SGProgram is the Datalog form of same generation with the predicate kept
// as an argument (so Filtered/Joined SG can bind it):
//
//	sg(P,X,Y) :- g(Z,P,X), g(Z,P,Y).
//	sg(P,X,Y) :- g(Z,P,X), sg(P,Z,W), g(W,P,Y).
func SGProgram(edge string) (*datalog.Program, datalog.Atom) {
	v := datalog.V
	prog := &datalog.Program{Rules: []datalog.Rule{
		{Head: datalog.NewAtom("sg", v("P"), v("X"), v("Y")), Body: []datalog.Atom{
			datalog.NewAtom(edge, v("Z"), v("P"), v("X")),
			datalog.NewAtom(edge, v("Z"), v("P"), v("Y")),
		}},
		{Head: datalog.NewAtom("sg", v("P"), v("X"), v("Y")), Body: []datalog.Atom{
			datalog.NewAtom(edge, v("Z"), v("P"), v("X")),
			datalog.NewAtom("sg", v("P"), v("Z"), v("W")),
			datalog.NewAtom(edge, v("W"), v("P"), v("Y")),
		}},
	}}
	return prog, datalog.NewAtom("sg", v("P"), v("X"), v("Y"))
}

// FilteredSGQuery binds the predicate argument of sg to one label.
func FilteredSGQuery(dict *core.Dict, label string) datalog.Atom {
	return datalog.NewAtom("sg", datalog.C(dict.Intern(label)), datalog.V("X"), datalog.V("Y"))
}

// JoinedSGProgram adds the join rule with the unary predicate set pName
// (the EDB relation JoinedSGTerm joins):
//
//	jsg(P,X,Y) :- pName(P), sg(P,X,Y).
func JoinedSGProgram(edge, pName string) (*datalog.Program, datalog.Atom) {
	prog, _ := SGProgram(edge)
	v := datalog.V
	prog.Rules = append(prog.Rules, datalog.Rule{
		Head: datalog.NewAtom("jsg", v("P"), v("X"), v("Y")),
		Body: []datalog.Atom{
			datalog.NewAtom(pName, v("P")),
			datalog.NewAtom("sg", v("P"), v("X"), v("Y")),
		},
	})
	return prog, datalog.NewAtom("jsg", v("P"), v("X"), v("Y"))
}
