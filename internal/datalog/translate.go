package datalog

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

// Translator compiles UCRPQ queries to Datalog programs over an EDB triple
// predicate g(src, label, trg). Like BigDatalog's compilation of regular
// path queries, every transitive closure becomes its own left-linear
// recursive predicate written in the left-to-right reading order of the
// expression — the engine then optimizes the program as written (magic
// sets), with no reversal or merging.
type Translator struct {
	EdgePred string
	Dict     *core.Dict

	fresh int
	rules []Rule
}

// NewTranslator returns a translator over the triple predicate edgePred.
func NewTranslator(edgePred string, dict *core.Dict) *Translator {
	return &Translator{EdgePred: edgePred, Dict: dict}
}

func (tr *Translator) freshPred(prefix string) string {
	tr.fresh++
	return fmt.Sprintf("%s_%d", prefix, tr.fresh)
}

func (tr *Translator) freshVar() string {
	tr.fresh++
	return fmt.Sprintf("Z%d", tr.fresh)
}

// pathBody returns body atoms connecting from to to along e, adding helper
// rules to the program as needed.
func (tr *Translator) pathBody(e rpq.Expr, from, to Arg) []Atom {
	switch n := e.(type) {
	case *rpq.Label:
		l := C(tr.Dict.Intern(n.Name))
		if n.Inverse {
			return []Atom{NewAtom(tr.EdgePred, to, l, from)}
		}
		return []Atom{NewAtom(tr.EdgePred, from, l, to)}
	case *rpq.Concat:
		var body []Atom
		cur := from
		for i, p := range n.Parts {
			next := to
			if i < len(n.Parts)-1 {
				next = V(tr.freshVar())
			}
			body = append(body, tr.pathBody(p, cur, next)...)
			cur = next
		}
		return body
	case *rpq.Alt:
		pred := tr.freshPred("alt")
		x, y := V("X"), V("Y")
		for _, p := range n.Parts {
			tr.rules = append(tr.rules, Rule{
				Head: NewAtom(pred, x, y),
				Body: tr.pathBody(p, x, y),
			})
		}
		return []Atom{NewAtom(pred, from, to)}
	case *rpq.Plus:
		pred := tr.freshPred("tc")
		x, y, z := V("X"), V("Y"), V("Z")
		// Left-linear, left-to-right: tc(X,Y) :- step(X,Y).
		//                             tc(X,Y) :- tc(X,Z), step(Z,Y).
		tr.rules = append(tr.rules, Rule{
			Head: NewAtom(pred, x, y),
			Body: tr.pathBody(n.Sub, x, y),
		})
		tr.rules = append(tr.rules, Rule{
			Head: NewAtom(pred, x, y),
			Body: append([]Atom{NewAtom(pred, x, z)}, tr.pathBody(n.Sub, z, y)...),
		})
		return []Atom{NewAtom(pred, from, to)}
	default:
		panic(fmt.Sprintf("datalog: unknown path expression %T", e))
	}
}

// Translate compiles a UCRPQ into a Datalog program and query atom. Head
// variables become the query predicate's arguments; constants appear
// directly in the rule bodies. The query atom has no bound argument, so
// MagicTransform returns the program unchanged and an anchored query
// still derives each closure in full.
func (tr *Translator) Translate(q *ucrpq.Query) (*Program, Atom, error) {
	tr.rules = nil
	endpointArg := func(e ucrpq.Endpoint) Arg {
		if e.IsVar {
			return V("Q_" + e.Name)
		}
		return C(tr.Dict.Intern(e.Name))
	}
	var body []Atom
	for _, a := range q.Atoms {
		subj := endpointArg(a.Subj)
		obj := endpointArg(a.Obj)
		body = append(body, tr.pathBody(a.Path, subj, obj)...)
	}
	headArgs := make([]Arg, len(q.Head))
	for i, h := range q.Head {
		headArgs[i] = V("Q_" + h)
	}
	queryRule := Rule{Head: NewAtom("query", headArgs...), Body: body}
	prog := &Program{Rules: append(tr.rules, queryRule)}
	if err := prog.Validate(); err != nil {
		return nil, Atom{}, err
	}
	queryAtom := NewAtom("query", headArgs...)
	return prog, queryAtom, nil
}

// EdgeCols maps the triple predicate edgePred(src, label, trg) to the
// columns of the labeled-edge relation bound under the same name, the
// edbCols Compile and Run take.
func EdgeCols(edgePred string) map[string][]string {
	return map[string][]string{edgePred: {core.ColSrc, core.ColPred, core.ColTrg}}
}

// EdgeDB builds the EDB for a labeled triple relation.
func EdgeDB(edgePred string, triples *core.Relation) DB {
	rel := NewRel(3)
	si := core.ColIndex(triples.Cols(), core.ColSrc)
	pi := core.ColIndex(triples.Cols(), core.ColPred)
	ti := core.ColIndex(triples.Cols(), core.ColTrg)
	for i := 0; i < triples.Len(); i++ {
		row := triples.RowAt(i)
		rel.Add([]core.Value{row[si], row[pi], row[ti]})
	}
	return DB{edgePred: rel}
}
