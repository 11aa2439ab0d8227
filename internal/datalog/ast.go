// Package datalog is the BigDatalog stand-in (Shkapsky et al., SIGMOD
// 2016), the paper's main baseline: positive Datalog, magic sets with
// left-to-right sideways information passing, and a UCRPQ translation
// that (like BigDatalog) reads regular expressions left to right. Run
// executes a program as written on the engine, one compiled µ-RA term per
// SCC: Ps_plw when a recursive SCC passes a column through unchanged (the
// GPS pivot of Seib & Lausen), Pgld otherwise. Eval, which shares no code
// with the engine, is the reference tests compare against.
//
// The stand-in keeps the structural limitations the paper attributes to
// Datalog engines (§VI): programs are optimized in the direction they are
// written (no fixpoint reversal), and concatenated closures are separate
// recursive predicates, fully materialized before being joined (no
// fixpoint merging).
package datalog

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Arg is an atom argument: a variable or a constant.
type Arg struct {
	IsVar bool
	Var   string
	Const core.Value
}

// V returns a variable argument.
func V(name string) Arg { return Arg{IsVar: true, Var: name} }

// C returns a constant argument.
func C(v core.Value) Arg { return Arg{Const: v} }

func (a Arg) String() string {
	if a.IsVar {
		return a.Var
	}
	return fmt.Sprintf("%d", a.Const)
}

// Atom is pred(args...).
type Atom struct {
	Pred string
	Args []Arg
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...Arg) Atom { return Atom{Pred: pred, Args: args} }

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, ar := range a.Args {
		parts[i] = ar.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// Rule is Head :- Body. An empty body is a fact rule.
type Rule struct {
	Head Atom
	Body []Atom
}

func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Program is a set of rules plus the EDB relation schemas implied by use.
type Program struct {
	Rules []Rule
}

func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// IDB returns the set of intensional predicates (those appearing in rule
// heads).
func (p *Program) IDB() map[string]bool {
	out := map[string]bool{}
	for _, r := range p.Rules {
		out[r.Head.Pred] = true
	}
	return out
}

// Arities returns predicate arities, checking consistency.
func (p *Program) Arities() (map[string]int, error) {
	out := map[string]int{}
	check := func(a Atom) error {
		if prev, ok := out[a.Pred]; ok && prev != len(a.Args) {
			return fmt.Errorf("datalog: predicate %s used with arities %d and %d", a.Pred, prev, len(a.Args))
		}
		out[a.Pred] = len(a.Args)
		return nil
	}
	for _, r := range p.Rules {
		if err := check(r.Head); err != nil {
			return nil, err
		}
		for _, a := range r.Body {
			if err := check(a); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Validate checks range restriction: every head variable must occur in the
// body (facts must be ground).
func (p *Program) Validate() error {
	if _, err := p.Arities(); err != nil {
		return err
	}
	for _, r := range p.Rules {
		bodyVars := map[string]bool{}
		for _, a := range r.Body {
			for _, ar := range a.Args {
				if ar.IsVar {
					bodyVars[ar.Var] = true
				}
			}
		}
		for _, ar := range r.Head.Args {
			if ar.IsVar && !bodyVars[ar.Var] {
				return fmt.Errorf("datalog: rule %s is not range-restricted (head var %s)", r, ar.Var)
			}
		}
	}
	return nil
}
