// Knowledge-graph example: run the paper's anchored Yago queries on a
// synthetic knowledge graph and compare what the optimizer does with and
// without the fixpoint rewritings — the Kevin-Bacon query (Q5 of the
// paper) needs a fixpoint *reversal* before the filter can be pushed, an
// optimization unique to the µ-RA approach.
package main

import (
	"context"
	"fmt"
	"log"

	distmura "repro"
	"repro/internal/graphgen"
)

func main() {
	// A wider plan space than the default: the demo queries are few and
	// long, so exploring more of each is cheap.
	eng, err := distmura.Open(distmura.Options{Workers: 4, MaxPlans: 128})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(graphgen.Yago(1500, 7))
	st := eng.Stats()
	fmt.Printf("synthetic Yago: %d triples, %d predicates\n\n", st.Triples, len(st.Predicates))
	ctx := context.Background()

	queries := []string{
		"?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon", // Q5: co-acting chain
		"?x <- Marie_Curie (hWP/-hWP)+ ?x",         // Q16: shared-prize chain
		"?x <- ?x livesIn/IsL+/dw+ United_States",  // Q4: geo + trade chain
		"?x,?y <- ?x IsL+/dw+ ?y",                  // Q8: merged closures
	}
	for _, q := range queries {
		ex, err := eng.Explain(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		optimized, err := eng.QueryCollect(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		naive, err := eng.QueryCollect(ctx, q, distmura.WithoutOptimization())
		if err != nil {
			log.Fatal(err)
		}
		if len(naive.Rows) != len(optimized.Rows) {
			log.Fatalf("optimizer changed the answer: %d vs %d rows", len(naive.Rows), len(optimized.Rows))
		}
		fmt.Printf("query: %s\n", q)
		fmt.Printf("  answers: %d   plan space: %d\n", len(optimized.Rows), ex.PlanSpace)
		fmt.Printf("  optimized: %.3fs (%d fixpoint iterations)\n", optimized.Stats.Seconds, optimized.Stats.Iterations)
		fmt.Printf("  naive:     %.3fs (%d fixpoint iterations)\n\n", naive.Stats.Seconds, naive.Stats.Iterations)
	}
}
