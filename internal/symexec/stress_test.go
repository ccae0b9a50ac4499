package symexec

import (
	"fmt"
	"strings"
	"testing"

	"mix/internal/engine"
	"mix/internal/pointer"
)

// nestedIfSrc builds a complete binary tree of conditionals of the
// given depth (2^depth - 1 branching conditionals, 2^depth paths) over
// symbolic int globals. Odd-numbered leaves dereference NULL — a
// distinct report position per leaf, and the path dies — while
// even-numbered leaves return a distinct constant, so both the report
// sequence and the surviving-outcome sequence are order-sensitive.
func nestedIfSrc(depth int) string {
	var b strings.Builder
	for i := 0; i < 1<<depth-1; i++ {
		fmt.Fprintf(&b, "int c%d;\n", i)
	}
	b.WriteString("int *p;\n")
	b.WriteString("int f(void) {\n")
	leaf := 0
	var emit func(node, d int)
	emit = func(node, d int) {
		if d == depth {
			if leaf%2 == 1 {
				b.WriteString("p = NULL;\n")
				b.WriteString("return *p;\n")
			} else {
				fmt.Fprintf(&b, "return %d;\n", 1000+leaf)
			}
			leaf++
			return
		}
		fmt.Fprintf(&b, "if (c%d > 0) {\n", node)
		emit(2*node+1, d+1)
		b.WriteString("} else {\n")
		emit(2*node+2, d+1)
		b.WriteString("}\n")
	}
	emit(0, 0)
	b.WriteString("}\n")
	return b.String()
}

func reportStrings(x *Executor) []string {
	out := make([]string, len(x.Reports))
	for i, r := range x.Reports {
		out[i] = r.String()
	}
	return out
}

// returnValues extracts the surviving paths' return values in join
// order; leaf constants are distinct, so this is sensitive to any
// reordering of the parallel join.
func returnValues(outs []Outcome) []string {
	vals := make([]string, len(outs))
	for i, o := range outs {
		vals[i] = fmt.Sprint(o.Ret)
	}
	return vals
}

// TestParallelMatchesSequential is the determinism stress test: a tree
// of 127 branching conditionals explored by the parallel engine must
// produce byte-identical reports and the same outcome order as the
// sequential executor. Run under -race this also exercises every
// shared structure (memory objects, pointer analysis, report sinks,
// solver pool) across workers.
func TestParallelMatchesSequential(t *testing.T) {
	const depth = 7 // 127 conditionals, 128 paths, 64 survive
	src := nestedIfSrc(depth)

	seq := New(mustParse(src), pointer.Analyze(mustParse(src)), engine.New(engine.Options{}))
	seq.SerialFork = true
	seqOuts, err := seq.Run("f")
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	wantReports := reportStrings(seq)
	wantRets := returnValues(seqOuts)
	if len(seqOuts) != 1<<depth/2 {
		t.Fatalf("sequential surviving paths = %d, want %d", len(seqOuts), 1<<depth/2)
	}
	if len(wantReports) != 1<<depth/2 {
		t.Fatalf("sequential reports = %d, want one null-deref per odd leaf", len(wantReports))
	}

	for _, workers := range []int{1, 2, 8} {
		par := New(mustParse(src), pointer.Analyze(mustParse(src)), engine.New(engine.Options{Workers: workers}))
		parOuts, err := par.Run("f")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := returnValues(parOuts); strings.Join(got, " ") != strings.Join(wantRets, " ") {
			t.Fatalf("workers=%d outcome order differs\nseq: %v\npar: %v", workers, wantRets, got)
		}
		if got := reportStrings(par); strings.Join(got, "\n") != strings.Join(wantReports, "\n") {
			t.Fatalf("workers=%d reports differ from sequential\nseq:\n%s\npar:\n%s",
				workers, strings.Join(wantReports, "\n"), strings.Join(got, "\n"))
		}
		if s := par.Engine.Snapshot(); s.Forks != 1<<depth-1 {
			t.Fatalf("workers=%d engine forks = %d, want %d", workers, s.Forks, 1<<depth-1)
		}
	}
}

// TestEnginePathBudgetTruncates checks graceful degradation: when the
// engine's path budget runs out the executor truncates to the then
// branch with an Imprecision report instead of failing.
func TestEnginePathBudgetTruncates(t *testing.T) {
	src := nestedIfSrc(7)
	x := New(mustParse(src), pointer.Analyze(mustParse(src)), engine.New(engine.Options{Workers: 1, MaxPaths: 32}))
	_, err := x.Run("f")
	if err != nil {
		t.Fatalf("budgeted run must degrade gracefully, got error %v", err)
	}
	truncated := 0
	for _, r := range x.Reports {
		if r.Kind == Imprecision && strings.Contains(r.Msg, "engine path budget") {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("expected Imprecision reports marking budget truncation")
	}
	s := x.Engine.Snapshot()
	if !s.Exhausted {
		t.Fatalf("engine must record exhaustion, got %+v", s)
	}
	if s.Forks != 31 {
		t.Fatalf("forks = %d, want 31 (budget of 32 paths)", s.Forks)
	}
}

// TestEngineForkDepthBudget bounds the fork depth of any single path:
// past the bound each path degrades to its then branch.
func TestEngineForkDepthBudget(t *testing.T) {
	src := nestedIfSrc(6)
	x := New(mustParse(src), pointer.Analyze(mustParse(src)), engine.New(engine.Options{Workers: 1, MaxForkDepth: 3}))
	outs, err := x.Run("f")
	if err != nil {
		t.Fatalf("depth-bounded run must degrade gracefully, got %v", err)
	}
	// 2^3 paths fork; each then follows leftmost (even, surviving)
	// leaves under truncation.
	if len(outs) != 8 {
		t.Fatalf("paths = %d, want 8 under fork depth 3", len(outs))
	}
	if s := x.Engine.Snapshot(); s.Forks != 7 || !s.Exhausted {
		t.Fatalf("snapshot = %+v, want 7 forks and exhaustion", s)
	}
}
