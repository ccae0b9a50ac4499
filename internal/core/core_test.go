package core

import (
	"strings"
	"testing"

	"mix/internal/lang"
	"mix/internal/sym"
	"mix/internal/types"
)

func checkTyped(t *testing.T, src string) (types.Type, error) {
	t.Helper()
	c := New(Options{})
	return c.Check(types.EmptyEnv(), lang.MustParse(src))
}

func checkSym(t *testing.T, src string) (types.Type, error) {
	t.Helper()
	c := New(Options{})
	return c.CheckSymbolic(types.EmptyEnv(), lang.MustParse(src))
}

func wantOK(t *testing.T, ty types.Type, err error, want types.Type) {
	t.Helper()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if !types.Equal(ty, want) {
		t.Fatalf("type = %s, want %s", ty, want)
	}
}

func wantErr(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q, want fragment %q", err, frag)
	}
}

func TestPureTypedProgram(t *testing.T) {
	ty, err := checkTyped(t, "let x = 1 in x + 2")
	wantOK(t, ty, err, types.Int)
}

func TestPureSymbolicProgram(t *testing.T) {
	ty, err := checkSym(t, "let x = 1 in x + 2")
	wantOK(t, ty, err, types.Int)
}

func TestSymBlockInsideTyped(t *testing.T) {
	ty, err := checkTyped(t, "1 + {s 2 + 3 s}")
	wantOK(t, ty, err, types.Int)
}

func TestTypedBlockInsideSymbolic(t *testing.T) {
	ty, err := checkSym(t, "1 + {t 2 + 3 t}")
	wantOK(t, ty, err, types.Int)
}

func TestUnreachableCodeIdiom(t *testing.T) {
	// Section 2: {t ... {s if true then {t 5 t} else {t "foo"+3 t} s} ... t}
	// Our analogue of the ill-typed branch is 1 + true. Pure type
	// checking rejects; MIX accepts because the false branch is dead.
	src := "{s if true then {t 5 t} else {t 1 + true t} s}"
	ty, err := checkTyped(t, src)
	wantOK(t, ty, err, types.Int)

	// The same program without block annotations is rejected by the
	// pure type system.
	var pure types.Checker
	_, err = pure.Check(types.EmptyEnv(), lang.MustParse("if true then 5 else 1 + true"))
	wantErr(t, err, "operand of +")
}

func TestSolverProvedUnreachable(t *testing.T) {
	// The dead branch is unreachable only via the solver: the guard of
	// the else path, ¬(x = x), is unsatisfiable.
	src := "let x = 4 + 5 in {s if x = x then {t 1 t} else {t 1 + true t} s}"
	c := New(Options{NoConcreteFold: true})
	ty, err := c.Check(types.EmptyEnv(), lang.MustParse(src))
	wantOK(t, ty, err, types.Int)
	// The discarded finding is recorded for transparency.
	found := false
	for _, r := range c.Reports {
		if !r.Feasible && strings.Contains(r.Msg, "operand of +") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a discarded infeasible report, got %v", c.Reports)
	}
}

func TestFeasibleErrorIsReported(t *testing.T) {
	c := New(Options{})
	b := types.EmptyEnv().Extend("b", types.Bool)
	_, err := c.CheckSymbolic(b, lang.MustParse("if b then 1 else 1 + true"))
	wantErr(t, err, "operand of +")
	if len(c.Reports) == 0 || !c.Reports[len(c.Reports)-1].Feasible {
		t.Fatalf("expected a feasible report, got %v", c.Reports)
	}
}

func TestFlowSensitivityIdiom(t *testing.T) {
	// Section 2: reuse a variable at different types inside a symbolic
	// block, type checking the code in between.
	src := "{s let x = 1 in let _ = {t x + 1 t} in let x = true in not x s}"
	ty, err := checkTyped(t, src)
	wantOK(t, ty, err, types.Bool)
}

func TestPathSensitivityBothBranchesTyped(t *testing.T) {
	// Symbolic fork with typed blocks per branch; both feasible, both
	// must type check independently.
	c := New(Options{})
	env := types.EmptyEnv().Extend("b", types.Bool)
	ty, err := c.CheckSymbolic(env, lang.MustParse("if b then {t 1 t} else {t 2 t}"))
	wantOK(t, ty, err, types.Int)
}

func TestPathsDisagreeOnType(t *testing.T) {
	c := New(Options{})
	env := types.EmptyEnv().Extend("b", types.Bool)
	_, err := c.CheckSymbolic(env, lang.MustParse("if b then 1 else true"))
	wantErr(t, err, "disagree on type")
}

func TestTypedBlockHavocsMemory(t *testing.T) {
	// After a typed block, memory is a fresh μ′; the earlier
	// allocation is unknown but still readable at its annotated type.
	src := "{s let x = ref 1 in let _ = {t 0 t} in !x s}"
	ty, err := checkTyped(t, src)
	wantOK(t, ty, err, types.Int)
}

func TestInconsistentMemoryEnteringTypedBlock(t *testing.T) {
	// A temporarily ill-typed memory is fine for symbolic execution
	// but must be flagged when switching to a typed block.
	src := "{s let x = ref 1 in let _ = x := true in {t 0 t} s}"
	_, err := checkTyped(t, src)
	wantErr(t, err, "memory inconsistent entering typed block")
}

func TestInconsistentMemoryAtBlockEnd(t *testing.T) {
	src := "{s let x = ref 1 in x := true s}"
	_, err := checkTyped(t, src)
	wantErr(t, err, "memory inconsistent")
}

func TestTemporaryViolationRepairedInsideBlock(t *testing.T) {
	// The write log lets a symbolic block temporarily break the type
	// invariant and repair it before the boundary.
	src := "{s let x = ref 1 in let _ = x := true in let _ = x := 2 in !x s}"
	ty, err := checkTyped(t, src)
	wantOK(t, ty, err, types.Int)
}

func TestDeepNesting(t *testing.T) {
	src := "{s 1 + {t 2 + {s 3 + {t 4 t} s} t} s}"
	ty, err := checkTyped(t, src)
	wantOK(t, ty, err, types.Int)
}

func TestEnvironmentFlowsThroughBoundaries(t *testing.T) {
	// x is bound outside the symbolic block and used inside the nested
	// typed block.
	src := "let x = 1 in {s {t x + 1 t} s}"
	ty, err := checkTyped(t, src)
	wantOK(t, ty, err, types.Int)
}

func TestDeferModeEndToEnd(t *testing.T) {
	c := New(Options{IfMode: sym.DeferIf})
	env := types.EmptyEnv().Extend("b", types.Bool)
	ty, err := c.CheckSymbolic(env, lang.MustParse("if b then 1 else 2"))
	wantOK(t, ty, err, types.Int)
	if c.Executor().Stats.Forks != 0 {
		t.Fatalf("defer mode forked: %+v", c.Executor().Stats)
	}
}

func TestUnsoundModeSkipsExhaustiveness(t *testing.T) {
	// Same program, sound and unsound: both accept here; unsound just
	// performs fewer solver queries.
	sound := New(Options{})
	unsound := New(Options{Unsound: true})
	env := types.EmptyEnv().Extend("b", types.Bool)
	e := lang.MustParse("if b then 1 else 2")
	if _, err := sound.CheckSymbolic(env, e); err != nil {
		t.Fatal(err)
	}
	if _, err := unsound.CheckSymbolic(env, e); err != nil {
		t.Fatal(err)
	}
	uq, sq := unsound.Engine().Snapshot().SolverQueries, sound.Engine().Snapshot().SolverQueries
	if uq >= sq {
		t.Fatalf("unsound mode should issue fewer queries: %d vs %d", uq, sq)
	}
}

func TestSolverAddrEqAblation(t *testing.T) {
	// In defer mode, q = (b ? p : p) is a different spelling of p.
	// Syntactic OVERWRITE-OK cannot discharge the ill-typed write to
	// p when repaired through q; the solver-backed oracle can.
	src := "{s let p = ref 1 in let q = (if b then p else p) in " +
		"let _ = p := true in let _ = q := 7 in !p s}"
	env := types.EmptyEnv().Extend("b", types.Bool)

	syntactic := New(Options{IfMode: sym.DeferIf})
	_, err := syntactic.Check(env, lang.MustParse(src))
	wantErr(t, err, "not consistently typed")

	solverEq := New(Options{IfMode: sym.DeferIf, SolverAddrEq: true})
	ty, err := solverEq.Check(env, lang.MustParse(src))
	wantOK(t, ty, err, types.Int)
}

func TestLocalRefinementTrichotomy(t *testing.T) {
	// Section 2's sign-refinement example, adapted: a three-way split
	// on a symbolic integer is exhaustive (x=0 | x=1 | otherwise).
	c := New(Options{})
	env := types.EmptyEnv().Extend("x", types.Int)
	src := "if x = 0 then {t 10 t} else (if x = 1 then {t 11 t} else {t 12 t})"
	ty, err := c.CheckSymbolic(env, lang.MustParse(src))
	wantOK(t, ty, err, types.Int)
}

func TestReportsAccumulateAcrossBlocks(t *testing.T) {
	c := New(Options{NoConcreteFold: true})
	src := "let x = 1 in {s if x = x then {t 1 t} else {t 1 + true t} s}" +
		" + {s if x = x then 2 else true + 1 s}"
	ty, err := c.Check(types.EmptyEnv(), lang.MustParse(src))
	wantOK(t, ty, err, types.Int)
	if len(c.Reports) < 2 {
		t.Fatalf("expected ≥2 discarded reports, got %v", c.Reports)
	}
	for _, r := range c.Reports {
		if r.Feasible {
			t.Fatalf("unexpected feasible report %v", r)
		}
	}
}
