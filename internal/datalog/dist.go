package datalog

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
)

// DistReport describes a distributed Datalog run.
type DistReport struct {
	SCCs             int
	RecursiveSCCs    int
	DecomposableSCCs int
	GlobalIterations int // iterations of global (shuffled) loops
	LocalIterations  int // max local iterations of decomposable loops
}

// DistEngine evaluates Datalog programs on the cluster substrate the way
// BigDatalog does on Spark: the program is split into dependency strata;
// each recursive stratum is analyzed with generalized pivoting (GPS) — if
// some argument position of every recursive predicate is passed unchanged
// through all its recursive rules, the stratum is decomposable and runs as
// partitioned local loops (seeds split by the pivot, support relations
// broadcast); otherwise it runs a global semi-naive loop whose delta is
// replicated to all workers every iteration (one shuffle barrier per
// iteration).
type DistEngine struct {
	C *cluster.Cluster
}

// NewDistEngine returns a distributed engine over c.
func NewDistEngine(c *cluster.Cluster) *DistEngine { return &DistEngine{C: c} }

// Run evaluates prog over edb and returns the tuples matching the query
// atom.
func (de *DistEngine) Run(prog *Program, edb DB, query Atom) (*Rel, *DistReport, error) {
	if err := prog.Validate(); err != nil {
		return nil, nil, err
	}
	arities, err := prog.Arities()
	if err != nil {
		return nil, nil, err
	}
	db := edb.Clone()
	for pred, arity := range arities {
		if _, ok := db[pred]; !ok {
			db[pred] = NewRel(arity)
		}
	}
	rep := &DistReport{}
	for _, scc := range SCCs(prog) {
		rules := rulesFor(prog, scc)
		rep.SCCs++
		if !IsRecursive(rules, scc) {
			if _, _, err := runSemiNaive(rules, scc, db); err != nil {
				return nil, nil, err
			}
			continue
		}
		rep.RecursiveSCCs++
		if err := de.runRecursiveSCC(rules, scc, db, rep); err != nil {
			return nil, nil, err
		}
	}
	out, err := SelectMatching(db, query)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// DecomposablePivot returns an argument position passed through unchanged
// by every recursive rule of the SCC (the GPS pivot), if one exists.
func DecomposablePivot(rules []Rule, scc map[string]bool) (int, bool) {
	arity := -1
	for _, r := range rules {
		if arity == -1 {
			arity = len(r.Head.Args)
		} else if len(r.Head.Args) != arity {
			return 0, false // mixed arities in one SCC: give up
		}
	}
	if arity <= 0 {
		return 0, false
	}
nextPivot:
	for k := 0; k < arity; k++ {
		for _, r := range rules {
			recursive := false
			for _, a := range r.Body {
				if scc[a.Pred] {
					recursive = true
					break
				}
			}
			if !recursive {
				continue
			}
			h := r.Head.Args[k]
			if !h.IsVar {
				continue nextPivot
			}
			for _, a := range r.Body {
				if !scc[a.Pred] {
					continue
				}
				if len(a.Args) != arity {
					continue nextPivot
				}
				b := a.Args[k]
				if !b.IsVar || b.Var != h.Var {
					continue nextPivot
				}
			}
		}
		return k, true
	}
	return 0, false
}

// supportRels returns the non-SCC relations the rules reference.
func supportRels(rules []Rule, scc map[string]bool, db DB) (map[string]*Rel, error) {
	out := map[string]*Rel{}
	for _, r := range rules {
		for _, a := range r.Body {
			if scc[a.Pred] {
				continue
			}
			rel, ok := db[a.Pred]
			if !ok {
				return nil, fmt.Errorf("datalog: unknown predicate %s", a.Pred)
			}
			out[a.Pred] = rel
		}
	}
	return out, nil
}

// seedSCC computes the base tuples of the SCC (rules without SCC body
// atoms) on the driver.
func seedSCC(rules []Rule, scc map[string]bool, db DB) (map[string]*Rel, error) {
	seeds := map[string]*Rel{}
	for _, r := range rules {
		recursive := false
		for _, a := range r.Body {
			if scc[a.Pred] {
				recursive = true
				break
			}
		}
		if recursive {
			continue
		}
		rows, err := evalRule(r, db, "", nil)
		if err != nil {
			return nil, err
		}
		s := seeds[r.Head.Pred]
		if s == nil {
			s = NewRel(len(r.Head.Args))
			seeds[r.Head.Pred] = s
		}
		for _, row := range rows {
			s.Add(row)
		}
	}
	return seeds, nil
}

func (de *DistEngine) runRecursiveSCC(rules []Rule, scc map[string]bool, db DB, rep *DistReport) error {
	support, err := supportRels(rules, scc, db)
	if err != nil {
		return err
	}
	seeds, err := seedSCC(rules, scc, db)
	if err != nil {
		return err
	}
	for p := range scc {
		if _, ok := seeds[p]; !ok {
			seeds[p] = NewRel(db[p].Arity())
		}
	}

	// Broadcast the support relations once.
	handles := map[string]*cluster.Broadcast{}
	bcCols := map[string][]string{}
	for name, rel := range support {
		cols := PosCols(rel.Arity())
		h, err := de.C.BroadcastRel(rel.ToRelation(cols))
		if err != nil {
			return err
		}
		handles[name] = h
		bcCols[name] = cols
	}
	defer func() {
		for _, h := range handles {
			de.C.FreeBroadcast(h)
		}
	}()

	pivot, decomposable := DecomposablePivot(rules, scc)
	if decomposable {
		rep.DecomposableSCCs++
		return de.runDecomposable(rules, scc, db, seeds, handles, bcCols, pivot, rep)
	}
	return de.runGlobalLoop(rules, scc, db, seeds, handles, bcCols, rep)
}

// localDB rebuilds the worker-side database from broadcasts.
func localDB(ctx *cluster.Ctx, handles map[string]*cluster.Broadcast, bcCols map[string][]string) (DB, error) {
	db := DB{}
	for name, h := range handles {
		r, err := ctx.BroadcastValue(h)
		if err != nil {
			return nil, err
		}
		db[name] = FromRelation(r, bcCols[name])
	}
	return db, nil
}

// runDecomposable executes the stratum as parallel local loops: each
// worker owns the seeds whose pivot value hashes to it and computes its
// share of the fixpoint with zero exchanges (BigDatalog's decomposable
// plan).
func (de *DistEngine) runDecomposable(rules []Rule, scc map[string]bool, db DB,
	seeds map[string]*Rel, handles map[string]*cluster.Broadcast, bcCols map[string][]string,
	pivot int, rep *DistReport) error {

	seedDS := map[string]*cluster.Dataset{}
	resDS := map[string]*cluster.Dataset{}
	for pred, rel := range seeds {
		cols := PosCols(rel.Arity())
		ds, err := de.C.Parallelize(rel.ToRelation(cols), []string{cols[pivot]})
		if err != nil {
			return err
		}
		seedDS[pred] = ds
		resDS[pred] = de.C.NewDataset(cols...)
	}
	defer func() {
		for _, ds := range seedDS {
			de.C.Free(ds)
		}
		for _, ds := range resDS {
			de.C.Free(ds)
		}
	}()
	var mu sync.Mutex
	maxIters := 0
	err := de.C.RunPhase(func(ctx *cluster.Ctx) error {
		wdb, err := localDB(ctx, handles, bcCols)
		if err != nil {
			return err
		}
		for pred, ds := range seedDS {
			wdb[pred] = FromRelation(ctx.Partition(ds), PosCols(db[pred].Arity()))
		}
		iters, _, err := runSemiNaive(rules, scc, wdb)
		if err != nil {
			return err
		}
		mu.Lock()
		if iters > maxIters {
			maxIters = iters
		}
		mu.Unlock()
		for pred, ds := range resDS {
			cols := PosCols(db[pred].Arity())
			ctx.SetPartition(ds, wdb[pred].ToRelation(cols))
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.LocalIterations = max(rep.LocalIterations, maxIters)
	for pred, ds := range resDS {
		cols := PosCols(db[pred].Arity())
		rel, err := de.C.Collect(ds)
		if err != nil {
			return err
		}
		merged := FromRelation(rel, cols)
		for _, row := range merged.Rows() {
			db[pred].Add(row)
		}
	}
	return nil
}

// runGlobalLoop executes a non-decomposable stratum: the SCC totals are
// replicated on every worker; each iteration partitions the delta across
// workers, fires the delta rules locally, and all-gathers the fresh tuples
// (one shuffle barrier per iteration).
func (de *DistEngine) runGlobalLoop(rules []Rule, scc map[string]bool, db DB,
	seeds map[string]*Rel, handles map[string]*cluster.Broadcast, bcCols map[string][]string,
	rep *DistReport) error {

	// Replicate seeds (initial totals) everywhere.
	seedHandles := map[string]*cluster.Broadcast{}
	for pred, rel := range seeds {
		cols := PosCols(rel.Arity())
		h, err := de.C.BroadcastRel(rel.ToRelation(cols))
		if err != nil {
			return err
		}
		seedHandles[pred] = h
	}
	defer func() {
		for _, h := range seedHandles {
			de.C.FreeBroadcast(h)
		}
	}()

	preds := make([]string, 0, len(scc))
	for p := range scc {
		preds = append(preds, p)
	}
	preds = core.SortCols(preds)

	type workerState struct {
		db    DB
		delta map[string]*Rel
	}
	states := make([]*workerState, de.C.NumWorkers())
	// Initialize worker state.
	if err := de.C.RunPhase(func(ctx *cluster.Ctx) error {
		wdb, err := localDB(ctx, handles, bcCols)
		if err != nil {
			return err
		}
		delta := map[string]*Rel{}
		for _, pred := range preds {
			cols := PosCols(db[pred].Arity())
			r, err := ctx.BroadcastValue(seedHandles[pred])
			if err != nil {
				return err
			}
			seed := FromRelation(r, cols)
			wdb[pred] = seed.Clone()
			delta[pred] = seed
		}
		states[ctx.WorkerID()] = &workerState{db: wdb, delta: delta}
		return nil
	}); err != nil {
		return err
	}

	for iter := 0; ; iter++ {
		if iter > 1_000_000 {
			return fmt.Errorf("datalog: global loop did not converge")
		}
		var mu sync.Mutex
		anyFresh := false
		err := de.C.RunPhase(func(ctx *cluster.Ctx) error {
			st := states[ctx.WorkerID()]
			freshAll := map[string]*Rel{}
			for _, r := range rules {
				for i, a := range r.Body {
					if !scc[a.Pred] {
						continue
					}
					d := st.delta[a.Pred]
					if d == nil || d.Len() == 0 {
						continue
					}
					// Each worker fires the delta rule on its slice of the
					// delta (rows whose hash belongs to this worker).
					slice := NewRel(d.Arity())
					for _, row := range d.Rows() { // datalog.Rel, not core.Relation
						at := make([]int, d.Arity())
						for j := range at {
							at[j] = j
						}
						if core.Owner(core.HashValuesAt(row, at), ctx.NumWorkers()) == ctx.WorkerID() {
							slice.Add(row)
						}
					}
					if slice.Len() == 0 {
						continue
					}
					rows, err := evalRule(r, st.db, "", map[int]*Rel{i: slice})
					if err != nil {
						return err
					}
					for _, row := range rows {
						if !st.db[r.Head.Pred].Has(row) {
							f := freshAll[r.Head.Pred]
							if f == nil {
								f = NewRel(len(row))
								freshAll[r.Head.Pred] = f
							}
							f.Add(row)
						}
					}
				}
			}
			// All-gather the fresh tuples per predicate (fixed order).
			nextDelta := map[string]*Rel{}
			for _, pred := range preds {
				f := freshAll[pred]
				cols := PosCols(st.db[pred].Arity())
				var frel *core.Relation
				if f == nil {
					frel = core.NewRelation(cols...)
				} else {
					frel = f.ToRelation(cols)
				}
				gathered, err := ctx.AllGather(frel)
				if err != nil {
					return err
				}
				fresh := NewRel(st.db[pred].Arity())
				for _, row := range FromRelation(gathered, cols).Rows() { // datalog.Rel rows
					if st.db[pred].Add(row) {
						fresh.Add(row)
					}
				}
				nextDelta[pred] = fresh
				if fresh.Len() > 0 {
					mu.Lock()
					anyFresh = true
					mu.Unlock()
				}
			}
			st.delta = nextDelta
			return nil
		})
		if err != nil {
			return err
		}
		rep.GlobalIterations++
		if !anyFresh {
			break
		}
	}
	// Totals are replicated; read them off worker 0's state.
	for _, pred := range preds {
		for _, row := range states[0].db[pred].Rows() {
			db[pred].Add(row)
		}
	}
	return nil
}
