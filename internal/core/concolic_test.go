package core

import (
	"mix/internal/engine"
	"testing"

	"mix/internal/lang"
	"mix/internal/sym"
	"mix/internal/types"
)

func TestConcolicFollowsOnePath(t *testing.T) {
	// With the concolic SEVAR variant, the conditional does not fork:
	// b is replaced by a concrete value and the choice recorded in the
	// path condition.
	c := New(Options{Concolic: true, Unsound: true})
	env := types.EmptyEnv().Extend("b", types.Bool)
	ty, err := c.CheckSymbolic(env, lang.MustParse("if b then 1 else 2"))
	if err != nil {
		t.Fatal(err)
	}
	if !types.Equal(ty, types.Int) {
		t.Fatalf("type = %s", ty)
	}
	if got := c.Executor().Stats.Paths; got != 1 {
		t.Fatalf("concolic execution should follow one path, got %d", got)
	}
}

func TestConcolicSoundModeRejects(t *testing.T) {
	// A single concolic path is not exhaustive; the sound TSYMBLOCK
	// must reject it — which is why the paper frames concolic testing
	// as using the "good enough" exhaustiveness check.
	c := New(Options{Concolic: true})
	env := types.EmptyEnv().Extend("b", types.Bool)
	_, err := c.CheckSymbolic(env, lang.MustParse("if b then 1 else 2"))
	wantErr(t, err, "not exhaustive")
}

func TestConcolicMissesTheOtherBranch(t *testing.T) {
	// The bug-finding tradeoff made concrete: the error sits in the
	// branch the concolic run does not take (b picks true), so unsound
	// concolic execution accepts — it trades coverage for speed.
	c := New(Options{Concolic: true, Unsound: true})
	env := types.EmptyEnv().Extend("b", types.Bool)
	ty, err := c.CheckSymbolic(env, lang.MustParse("if b then 1 else (1 + true)"))
	if err != nil {
		t.Fatalf("concolic run should miss the untaken branch: %v", err)
	}
	if !types.Equal(ty, types.Int) {
		t.Fatalf("type = %s", ty)
	}
	// Full symbolic execution finds it.
	full := New(Options{})
	_, err = full.CheckSymbolic(env, lang.MustParse("if b then 1 else (1 + true)"))
	wantErr(t, err, "operand of +")
}

func TestConcolicFindsErrorsOnItsPath(t *testing.T) {
	// Errors on the concrete path are still reported.
	c := New(Options{Concolic: true, Unsound: true})
	env := types.EmptyEnv().Extend("b", types.Bool)
	_, err := c.CheckSymbolic(env, lang.MustParse("if b then (1 + true) else 2"))
	wantErr(t, err, "operand of +")
}

func TestConcolicPathConditionRecorded(t *testing.T) {
	// The recorded equalities keep the path condition satisfiable and
	// meaningful: the guard must mention the chosen value.
	x := sym.NewExecutor(engine.New(engine.Options{}))
	x.Concolic = true
	x.ConcolicInt = 7
	env := sym.EmptyEnv().Extend("n", x.Fresh.Var(types.Int, "n"))
	rs, err := x.Run(env, x.InitialState(), lang.MustParse("n + 1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("paths = %d", len(rs))
	}
	if rs[0].Val.String() != "8:int" {
		t.Fatalf("concolic fold: got %s", rs[0].Val)
	}
	if g := rs[0].State.Guard.String(); g == "true:bool" {
		t.Fatal("the Σ(x) = v assumption must be recorded in the path condition")
	}
}
