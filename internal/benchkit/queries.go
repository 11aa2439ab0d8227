// Package benchkit is the experiment harness of the reproduction: the
// query workloads of the paper's Fig. 7 (Yago Q1–Q25) and Fig. 8 (Uniprot
// Q26–Q50), the non-regular class-C7 queries of §V-D (anbn, same
// generation, filtered and joined same generation) for all three systems,
// uniform runners for Dist-µ-RA, the BigDatalog stand-in and the GraphX
// stand-in with timeout/budget handling, and one function per figure of
// the evaluation section that regenerates the corresponding table.
package benchkit

import "strings"

// Query is one benchmark query with its class labels from the paper.
type Query struct {
	ID      string
	Text    string   // UCRPQ surface syntax
	Classes []string // C1..C7 membership as listed in Fig. 7/8
}

// YagoQueries reproduces Fig. 7 (queries Q1–Q25 on the Yago dataset).
// Entity abbreviations follow the paper's footnote: IsL=isLocatedIn,
// dw=dealsWith, haa=hasAcademicAdvisor, JLT=John_Lawrence_Toole,
// hWP=hasWonPrize, SH=Stephen_Hawking, isAff=isAffiliatedTo,
// S_Airport=Shannon_Airport, wce=wikicat_Capitals_in_Europe. Q22 is
// printed in the paper with head ?x over a body producing ?y; the head is
// normalized here so the query is well-formed.
var YagoQueries = []Query{
	{"Q1", "?x,?y <- ?x hasChild+ ?y", []string{"C1"}},
	{"Q2", "?x,?y <- ?x isConnectedTo+ ?y", []string{"C1"}},
	{"Q3", "?x <- ?x isMarriedTo/livesIn/IsL+/dw+ Argentina", []string{"C2", "C5", "C6"}},
	{"Q4", "?x <- ?x livesIn/IsL+/dw+ United_States", []string{"C2", "C5", "C6"}},
	{"Q5", "?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon", []string{"C2"}},
	{"Q6", "?area <- wce -type/(IsL+/dw|dw) ?area", []string{"C3", "C4", "C6"}},
	{"Q7", "?person <- ?person isMarriedTo+/owns/IsL+|owns/IsL+ USA", []string{"C2", "C4", "C6"}},
	{"Q8", "?x,?y <- ?x IsL+/dw+ ?y", []string{"C6"}},
	{"Q9", "?x,?y <- ?x (IsL|dw|rdfs:subClassOf|isConnectedTo)+ ?y", []string{"C1"}},
	{"Q10", "?x <- ?x (isConnectedTo/-isConnectedTo)+ S_Airport", []string{"C2"}},
	{"Q11", "?person <- ?person (wasBornIn/IsL/-wasBornIn)+ JLT", []string{"C2"}},
	{"Q12", "?x <- Jay_Kappraff (livesIn/IsL/-livesIn)+ ?x", []string{"C3"}},
	{"Q13", "?x,?y <- ?x (actedIn/-actedIn)+/hasChild+ ?y", []string{"C6"}},
	{"Q14", "?x,?y <- ?x (wasBornIn/IsL/-wasBornIn)+/isMarriedTo ?y", []string{"C4"}},
	{"Q15", "?x,?y <- ?x (actedIn/-actedIn)+/influences ?y", []string{"C4"}},
	{"Q16", "?x <- Marie_Curie (hWP/-hWP)+ ?x", []string{"C3"}},
	{"Q17", "?x <- London -wasBornIn/(playsFor/-playsFor)+ ?x", []string{"C3", "C5"}},
	{"Q18", "?x <- London (-wasBornIn/hWP/-hWP/wasBornIn)+ ?x", []string{"C3"}},
	{"Q19", "?x,?y <- ?x -actedIn/(-created/influences/created)+ ?y", []string{"C5"}},
	{"Q20", "?x,?y <- ?x -isLeaderOf/(livesIn/-livesIn)+ ?y", []string{"C5"}},
	{"Q21", "?x,?y <- ?x (-created/created)+/directed ?y", []string{"C4"}},
	{"Q22", "?y <- Lionel_Messi (playsFor/-playsFor)+/isAff ?y", []string{"C3", "C4"}},
	{"Q23", "?x <- SH (haa|influences)+/(isMarriedTo|hasChild)+ ?x", []string{"C3", "C6"}},
	{"Q24", "?x,?y <- ?x isConnectedTo+/IsL+/dw+/owns+ ?y", []string{"C6"}},
	{"Q25", "?x,?y <- ?x haa/hasChild/(hWP/-hWP)+ ?y", []string{"C5"}},
}

// UniprotQueries reproduces Fig. 8 (queries Q26–Q50 on uniprot_n).
// Abbreviations: int=interacts, enc=encodes, occ=occurs, hKw=hasKeyword,
// ref=reference, auth=authoredBy, pub=publishes. The generic constant "C"
// of the paper is instantiated per query with an entity of the type the
// query's position requires (see UniprotConstFor).
var UniprotQueries = []Query{
	{"Q26", "?x,?y <- ?x -hKw/(ref/-ref)+ ?y", []string{"C5"}},
	{"Q27", "?x,?y <- ?x -hKw/(enc/-enc)+ ?y", []string{"C5"}},
	{"Q28", "?x <- C (occ/-occ)+ ?x", []string{"C3"}},
	{"Q29", "?x,?y <- ?x int+/(occ/-occ)+/(hKw/-hKw)+ ?y", []string{"C6"}},
	{"Q30", "?x <- ?x (enc/-enc|occ/-occ)+ C", []string{"C2"}},
	{"Q31", "?x,?y <- ?x int+/(occ/-occ)+ ?y", []string{"C6"}},
	{"Q32", "?x,?y <- ?x int+/(enc/-enc)+ ?y", []string{"C6"}},
	{"Q33", "?x,?y <- ?x int/(enc/-enc)+ ?y", []string{"C5"}},
	{"Q34", "?x,?y <- ?x -hKw/int/ref/(auth/-auth)+ ?y", []string{"C5"}},
	{"Q35", "?x,?y <- ?x (enc/-enc)+/hKw ?y", []string{"C4"}},
	{"Q36", "?x <- ?x (enc/-enc)+ C", []string{"C2"}},
	{"Q37", "?x,?y,?z,?t <- ?x (enc/-enc)+ ?y, ?x int+ ?z, ?x ref ?t", []string{"C1", "C6"}},
	{"Q38", "?x,?y <- ?x (int|(enc/-enc))+ ?y, C (occ/-occ)+ ?y", []string{"C1", "C3"}},
	{"Q39", "?x <- ?x int+/ref ?y, C (auth/-auth)+ ?y", []string{"C3", "C4"}},
	{"Q40", "?x <- ?x int+/ref ?y, C -pub/(auth/-auth)+ ?y", []string{"C3", "C4", "C5"}},
	{"Q41", "?x <- C -pub/(auth/-auth)+ ?x", []string{"C3", "C5"}},
	{"Q42", "?x,?y <- ?x -occ/int+/occ ?y", []string{"C4", "C5"}},
	{"Q43", "?x,?y <- ?x (-ref/ref)+ ?y", []string{"C1"}},
	{"Q44", "?x,?y <- ?x int/ref/(-ref/ref)+ ?y", []string{"C5"}},
	{"Q45", "?x <- C (ref/-ref)+ ?x", []string{"C3"}},
	{"Q46", "?x,?y <- ?x (-ref/ref)+/(auth|pub) ?y", []string{"C4"}},
	{"Q47", "?x,?y <- ?x int/(occ/-occ)+ ?y", []string{"C5"}},
	{"Q48", "?x <- C int/(enc/-enc|occ/-occ)+ ?x", []string{"C3", "C5"}},
	{"Q49", "?x <- C (enc/-enc)+ ?x", []string{"C3"}},
	{"Q50", "?x,?y <- ?x -hKw/(occ/-occ)+ ?y", []string{"C5"}},
}

// UniprotConstFor returns the concrete entity substituted for the paper's
// generic constant "C" in a Uniprot query, typed by where the constant
// sits: journal for -pub anchors, publication for auth anchors, protein
// everywhere else.
func UniprotConstFor(id string) string {
	switch id {
	case "Q39":
		return "pubn0"
	case "Q40", "Q41":
		return "jour0"
	default:
		return "prot0"
	}
}

// InstantiateUniprot replaces the standalone constant C in a Uniprot query
// with its concrete entity.
func InstantiateUniprot(q Query) Query {
	c := UniprotConstFor(q.ID)
	// Replace "C " and " C" occurrences that denote the constant endpoint.
	text := strings.ReplaceAll(q.Text, " C ", " "+c+" ")
	if strings.HasSuffix(text, " C") {
		text = text[:len(text)-2] + " " + c
	}
	return Query{ID: q.ID, Text: text, Classes: q.Classes}
}
