package sym

import (
	"mix/internal/engine"
	"strings"
	"testing"

	"mix/internal/fault"
	"mix/internal/lang"
	"mix/internal/solver"
	"mix/internal/types"
)

// runSrc executes src with a fresh executor.
func runSrc(t *testing.T, src string) (*Executor, []Result) {
	t.Helper()
	x := NewExecutor(engine.New(engine.Options{}))
	rs, err := x.Run(EmptyEnv(), x.InitialState(), lang.MustParse(src))
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return x, rs
}

// successes filters out error results.
func successes(rs []Result) []Result {
	var out []Result
	for _, r := range rs {
		if r.Err == nil {
			out = append(out, r)
		}
	}
	return out
}

func pathErrors(rs []Result) []Result {
	var out []Result
	for _, r := range rs {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

func TestLiteralsAndFolding(t *testing.T) {
	_, rs := runSrc(t, "1 + 2")
	if len(rs) != 1 || rs[0].Err != nil {
		t.Fatalf("got %v", rs)
	}
	if rs[0].Val.String() != "3:int" {
		t.Fatalf("SEPLUS-CONC should fold: got %s", rs[0].Val)
	}
	_, rs = runSrc(t, "1 = 1")
	if rs[0].Val.String() != "true:bool" {
		t.Fatalf("got %s", rs[0].Val)
	}
	_, rs = runSrc(t, "not (true && false)")
	if rs[0].Val.String() != "true:bool" {
		t.Fatalf("got %s", rs[0].Val)
	}
}

func TestNoFoldingKeepsStructure(t *testing.T) {
	x := NewExecutor(engine.New(engine.Options{}))
	x.ConcreteFold = false
	rs, err := x.Run(EmptyEnv(), x.InitialState(), lang.MustParse("1 + 2"))
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Val.String() != "(1:int + 2:int):int" {
		t.Fatalf("got %s", rs[0].Val)
	}
}

func TestSymbolicArithmetic(t *testing.T) {
	x := NewExecutor(engine.New(engine.Options{}))
	a := x.Fresh.Var(types.Int, "a")
	env := EmptyEnv().Extend("a", a)
	rs, err := x.Run(env, x.InitialState(), lang.MustParse("a + 1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || !types.Equal(rs[0].Val.T, types.Int) {
		t.Fatalf("got %v", rs)
	}
	if _, ok := rs[0].Val.U.(AddOp); !ok {
		t.Fatalf("want deferred AddOp, got %T", rs[0].Val.U)
	}
}

func TestDynamicTypeErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{"1 + true", "right operand of +"},
		{"true + 1", "left operand of +"},
		{"1 = true", "operands of ="},
		{"not 3", "operand of not"},
		{"3 && true", "left operand of &&"},
		{"if 3 then 1 else 2", "condition of if"},
		{"!3", "dereference of non-reference"},
		{"3 := 4", "assignment to non-reference"},
	}
	for _, c := range cases {
		_, rs := runSrc(t, c.src)
		errs := pathErrors(rs)
		if len(errs) != 1 {
			t.Errorf("%q: got %d errors, want 1", c.src, len(errs))
			continue
		}
		if !strings.Contains(errs[0].Err.Msg, c.frag) {
			t.Errorf("%q: error %q, want fragment %q", c.src, errs[0].Err.Msg, c.frag)
		}
	}
}

func TestUnboundVariableIsHardError(t *testing.T) {
	x := NewExecutor(engine.New(engine.Options{}))
	_, err := x.Run(EmptyEnv(), x.InitialState(), lang.MustParse("nope"))
	if err == nil || !strings.Contains(err.Error(), "unbound variable") {
		t.Fatalf("got %v", err)
	}
}

func TestForkOnSymbolicCondition(t *testing.T) {
	x := NewExecutor(engine.New(engine.Options{}))
	b := x.Fresh.Var(types.Bool, "b")
	env := EmptyEnv().Extend("b", b)
	rs, err := x.Run(env, x.InitialState(), lang.MustParse("if b then 1 else 2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("want 2 paths, got %d", len(rs))
	}
	if x.Stats.Forks != 1 {
		t.Fatalf("Forks = %d, want 1", x.Stats.Forks)
	}
	// Path conditions must be b and ¬b respectively.
	g0, g1 := rs[0].State.Guard.String(), rs[1].State.Guard.String()
	if !strings.Contains(g0, "b") || !strings.Contains(g1, "¬") {
		t.Fatalf("unexpected guards %s / %s", g0, g1)
	}
}

func TestConstantConditionDoesNotFork(t *testing.T) {
	_, rs := runSrc(t, "if true then 1 else (1 + true)")
	if len(rs) != 1 || rs[0].Err != nil {
		t.Fatalf("partial evaluation should take only the true branch: %v", rs)
	}
	if rs[0].Val.String() != "1:int" {
		t.Fatalf("got %s", rs[0].Val)
	}
}

func TestFlowSensitiveReuse(t *testing.T) {
	// Section 2 "var x = 1; ...; x = 'foo'" analogue: rebinding a
	// variable at a different type is fine for the symbolic executor.
	_, rs := runSrc(t, "let x = 1 in let x = true in x && x")
	if len(rs) != 1 || rs[0].Err != nil {
		t.Fatalf("got %v", rs)
	}
}

func TestNestedForks(t *testing.T) {
	x := NewExecutor(engine.New(engine.Options{}))
	env := EmptyEnv().
		Extend("a", x.Fresh.Var(types.Bool, "a")).
		Extend("b", x.Fresh.Var(types.Bool, "b"))
	rs, err := x.Run(env, x.InitialState(),
		lang.MustParse("if a then (if b then 1 else 2) else (if b then 3 else 4)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("want 4 paths, got %d", len(rs))
	}
}

func TestRefDerefAssign(t *testing.T) {
	_, rs := runSrc(t, "let x = ref 1 in let _ = x := 2 in !x")
	ok := successes(rs)
	if len(ok) != 1 {
		t.Fatalf("got %v", rs)
	}
	if !types.Equal(ok[0].Val.T, types.Int) {
		t.Fatalf("deref type = %s", ok[0].Val.T)
	}
	if _, isRead := ok[0].Val.U.(MemRead); !isRead {
		t.Fatalf("want MemRead, got %T", ok[0].Val.U)
	}
}

func TestIllTypedWriteBlocksDeref(t *testing.T) {
	// Writing a bool through an int ref is allowed by SEASSIGN, but a
	// subsequent dereference requires ⊢ m ok and must fail.
	_, rs := runSrc(t, "let x = ref 1 in let _ = x := true in !x")
	errs := pathErrors(rs)
	if len(errs) != 1 || !strings.Contains(errs[0].Err.Msg, "memory not consistently typed") {
		t.Fatalf("got %v", rs)
	}
}

func TestOverwriteRestoresConsistency(t *testing.T) {
	// OVERWRITE-OK: a later well-typed write to the same location
	// discharges the earlier inconsistent one.
	_, rs := runSrc(t, "let x = ref 1 in let _ = x := true in let _ = x := 5 in !x")
	ok := successes(rs)
	if len(ok) != 1 {
		t.Fatalf("got %v", rs)
	}
}

func TestIllTypedWriteElsewhereStillBlocks(t *testing.T) {
	// The inconsistent write is to y; dereferencing x still requires
	// the whole memory to be consistent (the formalism's coarse rule).
	_, rs := runSrc(t, "let x = ref 1 in let y = ref 2 in let _ = y := true in !x")
	errs := pathErrors(rs)
	if len(errs) != 1 {
		t.Fatalf("got %v", rs)
	}
}

func TestTypedBlockWithoutHook(t *testing.T) {
	x := NewExecutor(engine.New(engine.Options{}))
	_, err := x.Run(EmptyEnv(), x.InitialState(), lang.MustParse("{t 1 t}"))
	if err == nil || !strings.Contains(err.Error(), "typed block not supported") {
		t.Fatalf("got %v", err)
	}
}

func TestSymBlockPassThrough(t *testing.T) {
	_, rs := runSrc(t, "{s 1 + 2 s}")
	if len(rs) != 1 || rs[0].Val.String() != "3:int" {
		t.Fatalf("got %v", rs)
	}
}

func TestDeferModeSingleResult(t *testing.T) {
	x := NewExecutor(engine.New(engine.Options{}))
	x.Mode = DeferIf
	b := x.Fresh.Var(types.Bool, "b")
	env := EmptyEnv().Extend("b", b)
	rs, err := x.Run(env, x.InitialState(), lang.MustParse("if b then 1 else 2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("defer mode should not fork: got %d results", len(rs))
	}
	if _, ok := rs[0].Val.U.(CondOp); !ok {
		t.Fatalf("want CondOp value, got %T", rs[0].Val.U)
	}
	if x.Stats.Merges != 1 || x.Stats.Forks != 0 {
		t.Fatalf("stats %+v", x.Stats)
	}
}

func TestDeferModeRequiresSameType(t *testing.T) {
	x := NewExecutor(engine.New(engine.Options{}))
	x.Mode = DeferIf
	b := x.Fresh.Var(types.Bool, "b")
	env := EmptyEnv().Extend("b", b)
	rs, err := x.Run(env, x.InitialState(), lang.MustParse("if b then 1 else true"))
	if err != nil {
		t.Fatal(err)
	}
	errs := pathErrors(rs)
	if len(errs) != 1 || !strings.Contains(errs[0].Err.Msg, "branches of deferred if") {
		t.Fatalf("got %v", rs)
	}
}

func TestForkModeAllowsDifferentBranchTypes(t *testing.T) {
	// Forking is less conservative than deferring: each path stands
	// alone, so branch types may differ.
	x := NewExecutor(engine.New(engine.Options{}))
	b := x.Fresh.Var(types.Bool, "b")
	env := EmptyEnv().Extend("b", b)
	rs, err := x.Run(env, x.InitialState(), lang.MustParse("if b then 1 else true"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pathErrors(rs)) != 0 {
		t.Fatalf("fork mode should succeed per-path: %v", rs)
	}
}

func TestMaxPathsBound(t *testing.T) {
	// Exceeding MaxPaths degrades: the result set is truncated to the
	// budget and the truncation is recorded, not turned into an error.
	x := NewExecutor(engine.New(engine.Options{}))
	x.MaxPaths = 3
	env := EmptyEnv().
		Extend("a", x.Fresh.Var(types.Bool, "a")).
		Extend("b", x.Fresh.Var(types.Bool, "b")).
		Extend("c", x.Fresh.Var(types.Bool, "c"))
	src := "let _ = (if a then 1 else 2) in let _ = (if b then 1 else 2) in if c then 1 else 2"
	rs, err := x.Run(env, x.InitialState(), lang.MustParse(src))
	if err != nil {
		t.Fatalf("path exhaustion must degrade, not error: %v", err)
	}
	if len(rs) == 0 || len(rs) > 3 {
		t.Fatalf("want 1..3 surviving paths after truncation, got %d", len(rs))
	}
	if x.ImprecisionCount() == 0 {
		t.Fatal("truncation must be recorded as imprecision")
	}
	if d := x.Degraded(); fault.ClassOf(d) != fault.PathBudget || !strings.Contains(d.Error(), "max-paths=3") {
		t.Fatalf("degradation cause = %v, want path-budget naming max-paths=3", d)
	}
}

func TestGuardsTranslateAndSolve(t *testing.T) {
	x := NewExecutor(engine.New(engine.Options{}))
	a := x.Fresh.Var(types.Int, "a")
	env := EmptyEnv().Extend("a", a)
	rs, err := x.Run(env, x.InitialState(), lang.MustParse("if a = 0 then 1 else 2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("want 2 paths, got %d", len(rs))
	}
	s := solver.New()
	var guards []solver.Formula
	tr := NewTranslator()
	for _, r := range rs {
		g, err := tr.Formula(r.State.Guard)
		if err != nil {
			t.Fatal(err)
		}
		sat, err := s.Sat(solver.NewAnd(g, tr.Sides()))
		if err != nil {
			t.Fatal(err)
		}
		if !sat {
			t.Fatalf("path guard %s should be feasible", r.State.Guard)
		}
		guards = append(guards, g)
	}
	taut, err := s.Tautology(guards...)
	if err != nil {
		t.Fatal(err)
	}
	if !taut {
		t.Fatal("the two forked guards must be exhaustive")
	}
}

func TestReadOverWriteTranslation(t *testing.T) {
	// !x after x := 2 must solve to 2.
	x := NewExecutor(engine.New(engine.Options{}))
	rs, err := x.Run(EmptyEnv(), x.InitialState(),
		lang.MustParse("let x = ref 1 in let _ = x := 2 in !x"))
	if err != nil {
		t.Fatal(err)
	}
	ok := successes(rs)
	tr := NewTranslator()
	term, err := tr.Term(ok[0].Val)
	if err != nil {
		t.Fatal(err)
	}
	s := solver.New()
	valid, err := s.Valid(solver.Implies(tr.Sides(), solver.Eq{X: term, Y: solver.IntConst{Val: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if !valid {
		t.Fatalf("read after write should equal 2; term %s", term)
	}
}

func TestAllocDistinctness(t *testing.T) {
	// Two allocations are distinct: writing to y must not clobber x.
	x := NewExecutor(engine.New(engine.Options{}))
	src := "let x = ref 1 in let y = ref 5 in let _ = y := 9 in !x"
	rs, err := x.Run(EmptyEnv(), x.InitialState(), lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	ok := successes(rs)
	tr := NewTranslator()
	term, err := tr.Term(ok[0].Val)
	if err != nil {
		t.Fatal(err)
	}
	s := solver.New()
	valid, err := s.Valid(solver.Implies(tr.Sides(), solver.Eq{X: term, Y: solver.IntConst{Val: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if !valid {
		t.Fatalf("!x should still be 1, term %s", term)
	}
}

func TestMemOKUnit(t *testing.T) {
	f := NewFresh()
	mu := f.Memory()
	if err := MemOK(mu); err != nil {
		t.Fatalf("EMPTY-OK: %v", err)
	}
	p := f.Var(types.Ref(types.Int), "p")
	alloc := Alloc{Base: mu, Addr: p, V: IntVal(1)}
	if err := MemOK(alloc); err != nil {
		t.Fatalf("ALLOC-OK: %v", err)
	}
	bad := Update{Base: alloc, Addr: p, V: BoolVal(true)}
	if err := MemOK(bad); err == nil {
		t.Fatal("ARBITRARY-NOTOK: ill-typed write must fail")
	}
	fixed := Update{Base: bad, Addr: p, V: IntVal(7)}
	if err := MemOK(fixed); err != nil {
		t.Fatalf("OVERWRITE-OK: %v", err)
	}
	// An overwrite through a *different* address does not discharge.
	q := f.Var(types.Ref(types.Int), "q")
	notFixed := Update{Base: bad, Addr: q, V: IntVal(7)}
	if err := MemOK(notFixed); err == nil {
		t.Fatal("overwrite via different address must not discharge")
	}
}

func TestMemOKWithSolverEquality(t *testing.T) {
	// With a smarter address-equality oracle, an overwrite through a
	// different-but-equal spelling discharges the bad write.
	f := NewFresh()
	mu := f.Memory()
	p := f.Var(types.Ref(types.Int), "p")
	bad := Update{Base: mu, Addr: p, V: BoolVal(true)}
	fixed := Update{Base: bad, Addr: p, V: IntVal(7)}
	always := func(a, b Val) bool { return types.Equal(a.T, b.T) }
	if err := MemOKWith(fixed, always); err != nil {
		t.Fatalf("custom oracle: %v", err)
	}
}

func TestEnvShadowing(t *testing.T) {
	f := NewFresh()
	e := EmptyEnv().Extend("x", IntVal(1)).Extend("x", BoolVal(true))
	v, ok := e.Lookup("x")
	if !ok || !types.Equal(v.T, types.Bool) {
		t.Fatalf("got %v", v)
	}
	if n := len(e.Names()); n != 1 {
		t.Fatalf("Names() has %d entries, want 1", n)
	}
	_ = f
}
