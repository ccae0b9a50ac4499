package sym

import (
	"testing"

	"mix/internal/engine"
	"mix/internal/lang"
	"mix/internal/types"
)

// runMerged executes src with the given merge mode, with a and b bound
// to fresh symbolic booleans.
func runMerged(t *testing.T, src string, mode engine.MergeMode) (*Executor, []Result) {
	t.Helper()
	x := NewExecutor(engine.New(engine.Options{}))
	x.MergeMode = mode
	env := EmptyEnv().
		Extend("a", x.Fresh.Var(types.Bool, "a")).
		Extend("b", x.Fresh.Var(types.Bool, "b"))
	rs, err := x.Run(env, x.InitialState(), lang.MustParse(src))
	if err != nil {
		t.Fatalf("Run(%q, merge=%s): %v", src, mode, err)
	}
	return x, rs
}

// TestJoinsMergesConditional: a forked conditional whose arms both
// survive rejoins into one guarded result — the SEIF-DEFER shape,
// reached from the forking rule instead of the deferring one.
func TestJoinsMergesConditional(t *testing.T) {
	xOff, off := runMerged(t, "if a then 1 else 2", engine.MergeOff)
	if len(off) != 2 || xOff.Stats.Merges != 0 {
		t.Fatalf("forked: %d paths, %d merges", len(off), xOff.Stats.Merges)
	}
	x, rs := runMerged(t, "if a then 1 else 2", engine.MergeJoins)
	if len(rs) != 1 {
		t.Fatalf("merged paths = %d, want 1", len(rs))
	}
	if x.Stats.Merges != 1 {
		t.Fatalf("merges = %d, want 1", x.Stats.Merges)
	}
	r := rs[0]
	if r.Err != nil {
		t.Fatalf("merged result errored: %v", r.Err)
	}
	if !types.Equal(r.Val.T, types.Int) {
		t.Fatalf("merged value type = %s, want int", r.Val.T)
	}
	if _, ok := r.Val.U.(CondOp); !ok {
		t.Fatalf("merged value = %s, want a guarded conditional", r.Val)
	}
	if _, ok := r.State.Guard.U.(CondOp); !ok {
		t.Fatalf("merged guard = %s, want the arms' disjunction", r.State.Guard)
	}
}

// TestJoinsNestedLadder: nested conditionals merge inside-out, so the
// 4-path tree comes back as one result with 3 joins.
func TestJoinsNestedLadder(t *testing.T) {
	src := "(if a then 1 else 2) + (if b then 10 else 20)"
	x, rs := runMerged(t, src, engine.MergeJoins)
	if len(rs) != 1 {
		t.Fatalf("merged paths = %d, want 1", len(rs))
	}
	if x.Stats.Merges != 2 {
		t.Fatalf("merges = %d, want one per conditional", x.Stats.Merges)
	}
	_, off := runMerged(t, src, engine.MergeOff)
	if len(off) != 4 {
		t.Fatalf("forked paths = %d, want 4", len(off))
	}
}

// TestJoinsPassesErrorsThrough: a path error in one arm is a finding
// tied to that path's guard; it must survive the merge unmerged while
// the ok results still join when the mode allows it.
func TestJoinsPassesErrorsThrough(t *testing.T) {
	// The then-arm errors dynamically; only one ok result per side is
	// required by joins mode, so nothing merges — the error and the
	// else result pass through as under forking.
	x, rs := runMerged(t, "if a then (1 + true) else 2", engine.MergeJoins)
	if len(pathErrors(rs)) != 1 || len(successes(rs)) != 1 {
		t.Fatalf("results = %v, want one error + one success", rs)
	}
	if x.Stats.Merges != 0 {
		t.Fatalf("merges = %d; a one-sided join must not merge", x.Stats.Merges)
	}
	// Both arms of the outer conditional survive (the error hides under
	// the inner conditional), so the outer join still merges and the
	// inner error passes through.
	src := "if a then (if b then (1 + true) else 2) else 3"
	x, rs = runMerged(t, src, engine.MergeJoins)
	if len(pathErrors(rs)) != 1 {
		t.Fatalf("results = %v, want the inner error passed through", rs)
	}
	if len(successes(rs)) != 1 || x.Stats.Merges != 1 {
		t.Fatalf("successes = %d, merges = %d; outer join must merge the surviving arms",
			len(successes(rs)), x.Stats.Merges)
	}
}

// TestJoinsDeclinesTypeMismatch: arms of different types cannot fold
// into one value; the merge declines and forking semantics remain.
func TestJoinsDeclinesTypeMismatch(t *testing.T) {
	x, rs := runMerged(t, "if a then 1 else true", engine.MergeOff)
	wantPaths := len(rs)
	x, rs = runMerged(t, "if a then 1 else true", engine.MergeJoins)
	if len(rs) != wantPaths {
		t.Fatalf("merged paths = %d, want %d (type-incompatible arms must not merge)", len(rs), wantPaths)
	}
	if x.Stats.Merges != 0 {
		t.Fatalf("merges = %d, want 0", x.Stats.Merges)
	}
}

// TestAggressiveSubsumesJoins: aggressive mode accepts every join the
// joins mode accepts (its shape test is weaker), so on a canonical
// nested ladder both fold to one result and aggressive never merges
// less. With merging active the inner conditionals collapse each arm
// to a single path before the outer join, so the one-per-arm joins
// shape is satisfied throughout.
func TestAggressiveSubsumesJoins(t *testing.T) {
	src := "if a then (if b then 1 else 2) + 0 else (if b then 3 else 4) + 0"
	xj, rsj := runMerged(t, src, engine.MergeJoins)
	if len(rsj) != 1 || xj.Stats.Merges != 3 {
		t.Fatalf("joins: paths = %d, merges = %d", len(rsj), xj.Stats.Merges)
	}
	xa, rsa := runMerged(t, src, engine.MergeAggressive)
	if len(rsa) != 1 {
		t.Fatalf("aggressive paths = %d, want 1", len(rsa))
	}
	if xa.Stats.Merges < xj.Stats.Merges {
		t.Fatalf("aggressive merges = %d < joins merges = %d", xa.Stats.Merges, xj.Stats.Merges)
	}
}

// TestMergedVerdictMatchesForked: the merged result set must give the
// same value under each guard as the forked paths — checked here on
// the concrete reads a downstream consumer would make.
func TestMergedVerdictMatchesForked(t *testing.T) {
	src := "let r = ref 0 in let _ = (if a then (r := 1) else (r := 2)) in !r"
	_, off := runMerged(t, src, engine.MergeOff)
	x, rs := runMerged(t, src, engine.MergeJoins)
	if len(successes(off)) != 2 || len(successes(rs)) != 1 {
		t.Fatalf("paths: forked %d, merged %d", len(successes(off)), len(successes(rs)))
	}
	if x.Stats.Merges != 1 {
		t.Fatalf("merges = %d, want 1 (memories folded under the guard)", x.Stats.Merges)
	}
	v := successes(rs)[0].Val
	if !types.Equal(v.T, types.Int) {
		t.Fatalf("merged deref type = %s, want int", v.T)
	}
}
