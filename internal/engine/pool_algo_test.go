package engine

import (
	"testing"

	"mix/internal/solver"
)

// capturePool builds a 1-worker engine whose pool reports every solver
// it constructs, so tests can inspect pooled state without relying on
// sync.Pool round-trips (which -race deliberately randomizes).
func capturePool(t *testing.T, opts Options) (*Engine, *[]*solver.Solver) {
	t.Helper()
	captured := &[]*solver.Solver{}
	opts.Workers = 1
	opts.NewSolver = func() *solver.Solver {
		s := solver.New()
		*captured = append(*captured, s)
		return s
	}
	e := New(opts)
	t.Cleanup(e.Close)
	return e, captured
}

// TestPoolAppliesAlgo: the pool must stamp the run's search core onto
// every borrowed solver, so one warm shared cache can serve runs with
// different -solver settings.
func TestPoolAppliesAlgo(t *testing.T) {
	e, captured := capturePool(t, Options{SolverAlgo: solver.AlgoDPLL})
	p := e.Pool()

	if _, _, err := p.solve([]solver.Formula{vle("a", "b")}, false); err != nil {
		t.Fatal(err)
	}
	if len(*captured) == 0 {
		t.Fatal("the solve never constructed a pooled solver")
	}
	for i, s := range *captured {
		if s.Algo != solver.AlgoDPLL {
			t.Fatalf("pooled solver %d: Algo = %v, want dpll", i, s.Algo)
		}
	}
}

// TestPoolFlushResetsSolvers: pooled solvers keep incremental CDCL
// state (learned clauses, cached root encodings) across queries, but a
// cache flush marks "start over" — the next borrow must Reset and
// adopt the new flush epoch, or stale encodings would outlive the
// cache generation that justified them.
func TestPoolFlushResetsSolvers(t *testing.T) {
	e, captured := capturePool(t, Options{})
	p := e.Pool()

	q := []solver.Formula{vle("a", "b")}
	if _, _, err := p.solve(q, false); err != nil {
		t.Fatal(err)
	}
	if len(*captured) == 0 {
		t.Fatal("the solve never constructed a pooled solver")
	}
	for i, s := range *captured {
		if s.Gen != 0 {
			t.Fatalf("pre-flush solver %d: epoch = %d, want 0", i, s.Gen)
		}
	}

	p.cache.Flush()
	sat, _, err := p.solve(q, false)
	if err != nil || !sat {
		t.Fatalf("post-flush solve: sat=%v err=%v", sat, err)
	}
	// Every solver the post-flush solve actually borrowed must carry
	// the new epoch; solvers sync.Pool dropped in between never served
	// it and legitimately keep the old tag.
	want := uint64(p.cache.flushes.Load())
	if want == 0 {
		t.Fatal("flush was not counted")
	}
	stamped := 0
	for _, s := range *captured {
		if s.Gen == want {
			stamped++
		}
	}
	if stamped == 0 {
		t.Fatalf("no pooled solver adopted flush epoch %d", want)
	}
}

// TestPoolAlgoVerdictsAgree: the same queries through engines running
// different search cores must produce identical verdicts — the
// behavioral half of the -solver=dpll differential oracle.
func TestPoolAlgoVerdictsAgree(t *testing.T) {
	queries := []solver.Formula{
		vle("a", "b"),
		solver.NewAnd(vle("a", "b"), solver.NewAnd(vle("b", "c"), solver.Lt{X: solver.IntVar{Name: "c"}, Y: solver.IntVar{Name: "a"}})),
		solver.NewAnd(bvar("p"), solver.NewNot(bvar("p"))),
		solver.NewOr(bvar("p"), solver.Eq{X: solver.IntVar{Name: "x"}, Y: solver.IntConst{Val: 3}}),
	}
	for qi, q := range queries {
		var verdicts []bool
		for _, a := range []solver.Algo{solver.AlgoCDCL, solver.AlgoDPLL} {
			e := New(Options{Workers: 1, SolverAlgo: a})
			sat, err := e.Sat(q)
			e.Close()
			if err != nil {
				t.Fatalf("query %d under %v: %v", qi, a, err)
			}
			verdicts = append(verdicts, sat)
		}
		if verdicts[0] != verdicts[1] {
			t.Fatalf("query %d: verdicts diverge across algos: %v", qi, verdicts)
		}
	}
}
