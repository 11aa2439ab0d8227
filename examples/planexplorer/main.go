// Plan-explorer example: look inside the optimizer. For one query this
// prints the naive µ-RA translation, a sample of the equivalent plans the
// MuRewriter generates (reversal, filter pushing, merging), their
// estimated costs, and the stable columns of each plan's fixpoints — the
// information that drives both logical selection and physical
// partitioning.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graphgen"
	"repro/internal/rewrite"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

func main() {
	g := graphgen.Yago(800, 23)
	queryText := "?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon"
	fmt.Printf("query: %s\n\n", queryText)

	q := ucrpq.MustParse(queryText)
	naive, err := ucrpq.Translate(q, "G", g.Dict, rpq.LeftToRight)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive translation (left-to-right):\n  %s\n\n", naive)

	rw := rewrite.NewRewriter(core.SchemaEnv{"G": g.Triples.Cols()})
	rw.MaxPlans = 64 // small enough that the space printed below stays readable
	plans := rw.Explore(naive)
	fmt.Printf("plan space: %d equivalent logical plans\n\n", len(plans))

	cat := cost.NewCatalog()
	cat.BindRelation("G", g.Triples)
	_, ranking := cost.SelectBest(plans, cat)
	sort.Slice(ranking, func(i, j int) bool { return ranking[i].Cost < ranking[j].Cost })

	fmt.Println("cheapest three plans (cost model ranking):")
	for i := 0; i < 3 && i < len(ranking); i++ {
		r := ranking[i]
		fmt.Printf("\n#%d  cost=%.4g\n  %s\n", i+1, r.Cost, r.Plan)
		describeFixpoints(r.Plan, g)
	}
	fmt.Printf("\nmost expensive plan for contrast (cost=%.4g):\n  %s\n",
		ranking[len(ranking)-1].Cost, ranking[len(ranking)-1].Plan)
}

// describeFixpoints prints each fixpoint's stable columns — the columns the
// physical layer can hash-partition on to make the parallel local loops
// disjoint.
func describeFixpoints(t core.Term, g *graphgen.Graph) {
	env := core.SchemaEnv{"G": g.Triples.Cols()}
	core.Walk(t, func(s core.Term) bool {
		fp, ok := s.(*core.Fixpoint)
		if !ok {
			return true
		}
		stable, err := core.StableColsOf(fp, env)
		if err != nil {
			return true
		}
		if len(stable) == 0 {
			fmt.Printf("  fixpoint %s…: no stable column (round-robin split + final distinct)\n", fp.X)
		} else {
			fmt.Printf("  fixpoint %s…: stable columns %v (disjoint local loops, no final distinct)\n", fp.X, stable)
		}
		return false
	})
}
