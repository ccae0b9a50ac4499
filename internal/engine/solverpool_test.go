package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mix/internal/solver"
)

func bvar(name string) solver.Formula { return solver.BoolVar{Name: name} }

// vle builds a two-variable inequality — the simplest shape the
// interval fast path cannot decide, so it reaches the memo/DPLL stage.
func vle(a, b string) solver.Formula {
	return solver.Le{X: solver.IntVar{Name: a}, Y: solver.IntVar{Name: b}}
}

func TestPoolMemoHit(t *testing.T) {
	e := New(Options{Workers: 1})
	f := vle("x", "y")
	for i := 0; i < 5; i++ {
		sat, err := e.Sat(f)
		if err != nil || !sat {
			t.Fatalf("Sat #%d = %v, %v", i, sat, err)
		}
	}
	s := e.Snapshot()
	if s.MemoMisses != 1 || s.MemoHits != 4 || s.SolverQueries != 5 {
		t.Fatalf("stats = %+v, want 1 miss / 4 hits / 5 queries", s)
	}
}

// TestPoolTrivialBypass pins the memo-regression fix: boolean literals
// and single-variable interval guards are decided by the fast path and
// generate no memo traffic at all.
func TestPoolTrivialBypass(t *testing.T) {
	e := New(Options{Workers: 1})
	x := solver.IntVar{Name: "x"}
	queries := []struct {
		f   solver.Formula
		sat bool
	}{
		{bvar("a"), true},
		{solver.NewAnd(bvar("a"), bvar("b")), true},
		{solver.NewAnd(bvar("a"), solver.NewNot(bvar("a"))), false},
		{solver.Lt{X: x, Y: solver.IntConst{Val: 10}}, true},
		{solver.NewAnd(solver.Lt{X: x, Y: solver.IntConst{Val: 0}}, solver.Lt{X: solver.IntConst{Val: 0}, Y: x}), false},
	}
	for i, q := range queries {
		sat, err := e.Sat(q.f)
		if err != nil || sat != q.sat {
			t.Fatalf("query %d: Sat = %v, %v; want %v", i, sat, err, q.sat)
		}
	}
	s := e.Snapshot()
	if s.MemoHits != 0 || s.MemoMisses != 0 {
		t.Fatalf("stats = %+v, want zero memo traffic for trivial queries", s)
	}
	if s.QuickDecided != int64(len(queries)) {
		t.Fatalf("QuickDecided = %d, want %d", s.QuickDecided, len(queries))
	}
}

func TestPoolMemoKeysByStructure(t *testing.T) {
	e := New(Options{Workers: 1})
	// Component keys are conjunct-set keys: structurally equal
	// conjunctions share one entry regardless of conjunct order.
	ab, bc := vle("a", "b"), vle("b", "c")
	if _, err := e.Sat(solver.NewAnd(ab, bc)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sat(solver.NewAnd(bc, ab)); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s.MemoHits != 1 || s.MemoMisses != 1 {
		t.Fatalf("stats = %+v, want commuted conjunction to share one entry", s)
	}
}

// TestPoolSlicing checks constraint-independence slicing: conjuncts
// over disjoint variables are solved as separate components, so a
// query sharing one component with an earlier query memo-hits that
// component.
func TestPoolSlicing(t *testing.T) {
	e := New(Options{Workers: 1})
	// Two independent components: {a,b} and {p,q}.
	f1 := solver.NewAnd(vle("a", "b"), vle("p", "q"))
	if sat, err := e.Sat(f1); err != nil || !sat {
		t.Fatalf("Sat(f1) = %v, %v", sat, err)
	}
	s := e.Snapshot()
	if s.Slices != 2 || s.MemoMisses != 2 || s.MaxSlice != 1 {
		t.Fatalf("stats = %+v, want 2 independent single-conjunct slices", s)
	}
	// A query reusing just the {a,b} component hits its memo entry.
	if sat, err := e.Sat(vle("a", "b")); err != nil || !sat {
		t.Fatalf("Sat(ab) = %v, %v", sat, err)
	}
	s = e.Snapshot()
	if s.MemoHits != 1 {
		t.Fatalf("stats = %+v, want component reuse to memo-hit", s)
	}
	// Entangled conjuncts stay in one component.
	if _, err := e.Sat(solver.NewAnd(vle("a", "b"), vle("b", "c"))); err != nil {
		t.Fatal(err)
	}
	if s = e.Snapshot(); s.MaxSlice != 2 {
		t.Fatalf("stats = %+v, want an entangled 2-conjunct slice", s)
	}
}

// TestPoolCexCache: a model proving one query satisfiable is reused,
// after Eval verification, for later queries it happens to satisfy.
func TestPoolCexCache(t *testing.T) {
	e := New(Options{Workers: 1})
	if sat, err := e.Sat(solver.NewAnd(vle("a", "b"), vle("b", "c"))); err != nil || !sat {
		t.Fatalf("seed query = %v, %v", sat, err)
	}
	// Any model of a<=b<=c satisfies a<=c: distinct memo key, but the
	// cached model short-circuits DPLL.
	if sat, err := e.Sat(vle("a", "c")); err != nil || !sat {
		t.Fatalf("cex query = %v, %v", sat, err)
	}
	s := e.Snapshot()
	if s.CexHits != 1 {
		t.Fatalf("stats = %+v, want 1 counterexample-cache hit", s)
	}
	if s.MemoMisses != 2 {
		t.Fatalf("stats = %+v, want both queries to miss the exact-match memo", s)
	}
}

func TestPoolValidSharesSatEntry(t *testing.T) {
	e := New(Options{Workers: 1})
	f := vle("x", "y")
	// Valid(f) is Sat(¬f); a direct Sat(¬f) afterwards must hit.
	if _, err := e.Valid(f); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sat(solver.NewNot(f)); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s.MemoHits != 1 || s.MemoMisses != 1 {
		t.Fatalf("stats = %+v, want Valid and Sat(¬f) to share one entry", s)
	}
}

func TestPoolNoMemo(t *testing.T) {
	e := New(Options{Workers: 1, NoMemo: true})
	f := vle("x", "y")
	for i := 0; i < 3; i++ {
		if _, err := e.Sat(f); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Snapshot()
	if s.MemoHits != 0 || s.MemoMisses != 0 || s.CexHits != 0 || s.SolverQueries != 3 {
		t.Fatalf("stats = %+v, want no caching and 3 queries", s)
	}
}

// limitFormula exceeds a MaxAtoms=4 bound with six entangled
// arithmetic atoms (chained variables, so slicing cannot split them
// and the interval fast path does not apply).
func limitFormula() solver.Formula {
	var fs []solver.Formula
	for i := 0; i < 6; i++ {
		fs = append(fs, solver.Eq{
			X: solver.Add{X: solver.IntVar{Name: fmt.Sprintf("x%d", i)}, Y: solver.IntVar{Name: fmt.Sprintf("x%d", i+1)}},
			Y: solver.IntConst{Val: int64(i)},
		})
	}
	return solver.Conj(fs...)
}

func TestPoolMemoizesUnknown(t *testing.T) {
	e := New(Options{Workers: 1, NewSolver: func() *solver.Solver {
		s := solver.New()
		s.MaxAtoms = 4
		return s
	}})
	f := limitFormula()
	for i := 0; i < 3; i++ {
		_, err := e.Sat(f)
		if !errors.Is(err, solver.ErrLimit) {
			t.Fatalf("Sat #%d = %v, want ErrLimit", i, err)
		}
	}
	s := e.Snapshot()
	// The exhaustion is deterministic for fixed bounds, so repeats are
	// memo hits, each still counted as unknown.
	if s.MemoMisses != 1 || s.MemoHits != 2 || s.SolverUnknown != 3 {
		t.Fatalf("stats = %+v, want 1 miss / 2 hits / 3 unknown", s)
	}
}

func TestPoolUnknownKeepsPath(t *testing.T) {
	e := New(Options{Workers: 1, NewSolver: func() *solver.Solver {
		s := solver.New()
		s.MaxAtoms = 4
		return s
	}})
	if !e.FeasiblePCSpan(nil, nil, limitFormula()) {
		t.Fatal("resource-exhausted query must be treated as feasible (unknown → keep path)")
	}
}

func TestPoolLRUEviction(t *testing.T) {
	// A tiny memo forces eviction; correctness (answers) must be
	// unaffected, only hit rate.
	e := New(Options{Workers: 1, MemoSize: memoShards}) // one entry per shard
	for i := 0; i < 100; i++ {
		sat, err := e.Sat(vle(fmt.Sprintf("v%d", i), fmt.Sprintf("w%d", i)))
		if err != nil || !sat {
			t.Fatalf("Sat v%d = %v, %v", i, sat, err)
		}
	}
	for i := 0; i < 100; i++ {
		sat, err := e.Sat(vle(fmt.Sprintf("v%d", i), fmt.Sprintf("w%d", i)))
		if err != nil || !sat {
			t.Fatalf("re-Sat v%d = %v, %v", i, sat, err)
		}
	}
	if s := e.Snapshot(); s.SolverQueries != 200 {
		t.Fatalf("queries = %d, want 200", s.SolverQueries)
	}
}

func TestPoolConcurrentSat(t *testing.T) {
	e := New(Options{Workers: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := solver.NewAnd(vle(fmt.Sprintf("c%d", i%10), "shared"), vle("shared", fmt.Sprintf("d%d", i%10)))
				sat, err := e.Sat(f)
				if err != nil || !sat {
					t.Errorf("Sat = %v, %v", sat, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := e.Snapshot()
	if s.SolverQueries != 400 || s.MemoHits+s.MemoMisses != 400 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MemoHits < 300 {
		t.Fatalf("only %d hits of 400 queries over 10 distinct formulas", s.MemoHits)
	}
}

// TestPoolSatPC drives the incremental path-condition interface the
// executors use: shared tails, per-node id caching, and extra guards.
func TestPoolSatPC(t *testing.T) {
	e := New(Options{Workers: 1})
	x := solver.IntVar{Name: "x"}
	base := solver.PCTrue.And(vle("a", "b")) // non-trivial prefix
	tpc := base.And(solver.Lt{X: x, Y: solver.IntConst{Val: 10}})
	epc := base.And(solver.NewNot(solver.Lt{X: x, Y: solver.IntConst{Val: 10}}))
	for _, pc := range []*solver.PC{tpc, epc} {
		sat, err := e.SatPC(pc)
		if err != nil || !sat {
			t.Fatalf("SatPC = %v, %v", sat, err)
		}
	}
	// The shared {a,b} component solves once; the x-guards are interval
	// components and never reach the memo.
	s := e.Snapshot()
	if s.MemoMisses != 1 || s.MemoHits != 1 {
		t.Fatalf("stats = %+v, want the shared prefix component to hit", s)
	}
	// Extras conjoin on top of the path condition.
	sat, err := e.SatPC(tpc, solver.Lt{X: solver.IntConst{Val: 20}, Y: x})
	if err != nil || sat {
		t.Fatalf("SatPC with contradictory extra = %v, %v, want unsat", sat, err)
	}
	// A dead PC short-circuits without any solver work.
	if e.FeasiblePCSpan(nil, tpc.And(solver.False)) {
		t.Fatal("dead PC must be infeasible")
	}
}

func TestHashconsDistinguishes(t *testing.T) {
	tbl := newConsTable()
	pairs := []solver.Formula{
		bvar("a"),
		solver.NewNot(bvar("a")),
		solver.NewAnd(bvar("a"), bvar("b")),
		solver.NewOr(bvar("a"), bvar("b")),
		solver.Eq{X: solver.IntVar{Name: "x"}, Y: solver.IntConst{Val: 1}},
		solver.Le{X: solver.IntVar{Name: "x"}, Y: solver.IntConst{Val: 1}},
		solver.Lt{X: solver.IntVar{Name: "x"}, Y: solver.IntConst{Val: 1}},
		solver.Iff{X: bvar("a"), Y: bvar("b")},
		solver.Eq{X: solver.App{Fn: "f", Args: []solver.Term{solver.IntVar{Name: "x"}}}, Y: solver.IntConst{Val: 0}},
		solver.Eq{X: solver.App{Fn: "f", Args: []solver.Term{solver.IntVar{Name: "x"}, solver.IntVar{Name: "y"}}}, Y: solver.IntConst{Val: 0}},
	}
	seen := map[uint64]int{}
	for i, f := range pairs {
		id := tbl.formulaID(f)
		if j, dup := seen[id]; dup {
			t.Fatalf("formulas %d and %d collide on id %d", j, i, id)
		}
		seen[id] = i
	}
	// Re-interning returns identical ids.
	for i, f := range pairs {
		if id := tbl.formulaID(f); seen[id] != i {
			t.Fatalf("formula %d not stable across interning", i)
		}
	}
	// Conjunct-set ids are order- and duplicate-insensitive.
	a, b, c := tbl.formulaID(bvar("a")), tbl.formulaID(bvar("b")), tbl.formulaID(bvar("c"))
	if tbl.conjID([]uint64{a, b, c}) != tbl.conjID([]uint64{c, a, b, a}) {
		t.Fatal("conjID must be order/multiplicity-insensitive")
	}
	if tbl.conjID([]uint64{a, b}) == tbl.conjID([]uint64{a, c}) {
		t.Fatal("distinct conjunct sets must get distinct ids")
	}
}
