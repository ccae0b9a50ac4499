package core

import (
	"testing"

	"mix/internal/lang"
	"mix/internal/solver"
	"mix/internal/sym"
	"mix/internal/types"
)

// derefAfterBlock checks whether !r still provably equals 5 after a
// typed block, under the given options.
func derefKnownAfterBlock(t *testing.T, opts Options, block string) bool {
	t.Helper()
	c := New(opts)
	src := "let r = ref 5 in let _ = " + block + " in !r"
	// Run the executor directly so the final value is inspectable.
	x := c.Executor()
	rs, err := x.Run(sym.EmptyEnv(), x.InitialState(), lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Err != nil {
		t.Fatalf("unexpected results %v", rs)
	}
	tr := sym.NewTranslator()
	term, err := tr.Term(rs[0].Val)
	if err != nil {
		t.Fatal(err)
	}
	known, err := c.Engine().Valid(solver.Implies(tr.Sides(),
		solver.Eq{X: term, Y: solver.IntConst{Val: 5}}))
	if err != nil {
		t.Fatal(err)
	}
	return known
}

func TestEffectAwareTypedBlockPreservesMemory(t *testing.T) {
	// Without effects: the typed block havocs memory, so !r is
	// unknown afterwards.
	if derefKnownAfterBlock(t, Options{}, "{t 1 + 1 t}") {
		t.Fatal("plain SETYPBLOCK must havoc memory")
	}
	// With the effect refinement: the pure block leaves memory alone.
	if !derefKnownAfterBlock(t, Options{EffectAware: true}, "{t 1 + 1 t}") {
		t.Fatal("effect-aware SETYPBLOCK should preserve memory across a pure block")
	}
	// A writing block still havocs even with effects on.
	if derefKnownAfterBlock(t, Options{EffectAware: true}, "{t (ref 0) := 1 t}") {
		t.Fatal("a writing typed block must still havoc")
	}
}

func TestEffectAnalysisConservative(t *testing.T) {
	cases := []struct {
		src   string
		write bool
	}{
		{"1 + 2", false},
		{"!x", false},
		{"if b then 1 else 2", false},
		{"let y = 1 in y", false},
		{"fun z -> z := 1", false}, // effect deferred to application
		{"x := 1", true},
		{"ref 1", true},
		{"f 1", true},     // unknown callee
		{"{s 1 s}", true}, // nested symbolic block: conservative
		{"let y = x := 1 in y", true},
		{"if b then x := 1 else 2", true},
		{"not (1 = !x)", false},
		{"1 < !x", false},
	}
	for _, c := range cases {
		e := lang.MustParse(c.src)
		if got := mayWrite(e); got != c.write {
			t.Errorf("mayWrite(%q) = %t, want %t", c.src, got, c.write)
		}
	}
}

func TestEffectAwareEndToEndPrecision(t *testing.T) {
	// The whole point: a fact established before a pure typed block
	// survives it and can prove a later branch dead.
	src := `{s let r = ref 0 in
	          let _ = {t 1 + 1 t} in
	          if !r = 0 then 1 else (1 + true) s}`
	// Without effects the bad branch is feasible (memory unknown).
	c := New(Options{})
	_, err := c.Check(types.EmptyEnv(), lang.MustParse(src))
	wantErr(t, err, "operand of +")
	// With effects the read resolves and the branch is dead.
	c2 := New(Options{EffectAware: true})
	ty, err := c2.Check(types.EmptyEnv(), lang.MustParse(src))
	wantOK(t, ty, err, types.Int)
}

func TestEffectAwareSoundness(t *testing.T) {
	// The randomized Theorem-1 property holds with the refinement on.
	runSoundnessConfig(t, Options{EffectAware: true}, false, 300)
	runSoundnessConfig(t, Options{EffectAware: true}, true, 300)
}
