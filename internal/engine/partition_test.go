package engine

import (
	"testing"

	"mix/internal/obs"
	"mix/internal/solver"
)

// TestStageCountsPartitionQueries: the pool's stage counters account
// for every query exactly once. A query ends at the interval fast
// path, or each independence component it visits ends at exactly one
// of quick, memo hit, counterexample hit or core solve (the
// solver.dpll.ns count). A satisfiable query visits all of its
// components; an unsatisfiable one stops at the first refuted one.
func TestStageCountsPartitionQueries(t *testing.T) {
	x := solver.IntVar{Name: "x"}
	queries := []solver.Formula{
		bvar("a"), // quick
		solver.Lt{X: x, Y: solver.IntConst{Val: 3}}, // quick
		vle("a", "b"), // core
		vle("a", "b"), // memo hit
		solver.NewAnd(vle("a", "b"), vle("b", "c")), // core
		vle("a", "c"), // cex hit
		solver.NewAnd(vle("p", "q"), vle("r", "s")),                               // two components
		solver.NewAnd(vle("p", "q"), solver.Lt{X: x, Y: solver.IntConst{Val: 3}}), // component quick + memo
		solver.NewAnd(solver.Lt{X: solver.IntVar{Name: "u"}, Y: solver.IntVar{Name: "v"}},
			solver.Lt{X: solver.IntVar{Name: "v"}, Y: solver.IntVar{Name: "u"}}), // unsat core
		solver.NewAnd(solver.NewAnd(vle("m", "n"), solver.NewNot(vle("m", "n"))), vle("k", "l")), // unsat
		solver.NewAnd(bvar("a"), solver.NewNot(bvar("a"))),                                       // quick unsat
	}
	for _, noMemo := range []bool{false, true} {
		reg := obs.NewRegistry()
		e := New(Options{Workers: 1, NoMemo: noMemo, Metrics: reg})
		core := reg.Histogram("solver.dpll.ns")
		for i, f := range queries {
			before, cores0 := e.Snapshot(), core.Count()
			sat, err := e.Sat(f)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			after, cores := e.Snapshot(), core.Count()-cores0
			quick := after.QuickDecided - before.QuickDecided
			slices := after.Slices - before.Slices
			hits := after.MemoHits - before.MemoHits
			misses := after.MemoMisses - before.MemoMisses
			cex := after.CexHits - before.CexHits
			if q := after.SolverQueries - before.SolverQueries; q != 1 {
				t.Fatalf("query %d counted %d times", i, q)
			}
			if slices != hits+cex+cores {
				t.Fatalf("query %d (nomemo=%v): %d components reached the memo stage, but %d memo hits + %d cex hits + %d core solves",
					i, noMemo, slices, hits, cex, cores)
			}
			if !noMemo && misses != cex+cores {
				t.Fatalf("query %d: %d memo misses, but %d cex hits + %d core solves", i, misses, cex, cores)
			}
			ncomp := 0
			if cs, ok := sliceConjuncts(nil, []solver.Formula{f}); ok {
				ncomp = len(components(cs))
			}
			visited := quick + slices
			switch {
			case visited < 1 || visited > int64(max(ncomp, 1)):
				t.Fatalf("query %d: %d stage outcomes for %d components", i, visited, ncomp)
			case sat && slices > 0 && visited != int64(ncomp):
				t.Fatalf("query %d is sat but only %d of its %d components were decided", i, visited, ncomp)
			}
		}
		if s := e.Snapshot(); !noMemo && (s.MemoHits == 0 || s.CexHits == 0 || s.QuickDecided == 0 || core.Count() == 0) {
			t.Fatalf("the queries missed a stage: %+v, %d core solves", s, core.Count())
		}
	}
}
