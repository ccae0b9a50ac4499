package summary

import (
	"fmt"
	"mix/internal/engine"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mix/internal/fault"
	"mix/internal/microc"
	"mix/internal/pointer"
	"mix/internal/symexec"
)

func mustParse(t *testing.T, src string) *microc.Program {
	t.Helper()
	prog, err := microc.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func fn(t *testing.T, prog *microc.Program, name string) *microc.FuncDef {
	t.Helper()
	f, ok := prog.Func(name)
	if !ok {
		t.Fatalf("no function %s", name)
	}
	return f
}

const admissibilitySrc = `
int add(int a, int b) { return a + b; }
int twice(int a) { return add(a, a); }
int rec(int n) { if (n <= 0) return 0; return rec(n - 1); }
int deref(int *p) { return *p; }
int viaptr(int x) { int y = x; int *p = &y; return *p; }
int looped(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }
void side(int a) { int b = a; }
`

func TestAdmissibility(t *testing.T) {
	prog := mustParse(t, admissibilitySrc)
	a := analyze(prog)

	wantOK := map[string]bool{
		"add": true, "twice": true, "looped": true, "side": true,
		"rec": false, "deref": false, "viaptr": false,
	}
	for name, ok := range wantOK {
		in := a.info[fn(t, prog, name)]
		if in.ok != ok {
			t.Errorf("%s: summarizable=%v (reason %q), want %v", name, in.ok, in.reason, ok)
		}
	}
	if in := a.info[fn(t, prog, "rec")]; !strings.Contains(in.reason, "recursive") {
		t.Errorf("rec rejected for %q, want a recursion reason", in.reason)
	}
	if h := a.info[fn(t, prog, "twice")].height; h != 2 {
		t.Errorf("twice height = %d, want 2 (add is a leaf)", h)
	}
}

// pathKeys renders each outcome as "PC | ret" for order-insensitive
// structural comparison between inline and summary-instantiated runs.
func pathKeys(outs []symexec.Outcome) []string {
	keys := make([]string, 0, len(outs))
	for _, o := range outs {
		ret := "void"
		if vi, ok := o.Ret.(symexec.VInt); ok {
			ret = vi.T.String()
		}
		keys = append(keys, o.St.PC.String()+" | "+ret)
	}
	sort.Strings(keys)
	return keys
}

const callerSrc = `
int h(int a, int b) {
  if (a < b) { return a + 1; }
  return b - 1;
}
int entry(int x, int y) MIX(symbolic) {
  int r = h(x, y);
  int s = h(r, x);
  return r + s;
}
`

// TestInstantiationMatchesInline pins the core soundness claim: with
// merging off, instantiating a summary yields structurally identical
// (path condition, return term) pairs to inlining the callee — same
// formulas, same order-insensitive multiset, no extra or missing paths.
func TestInstantiationMatchesInline(t *testing.T) {
	prog := mustParse(t, callerSrc)

	inline := symexec.New(prog, pointer.Analyze(prog), engine.New(engine.Options{}))
	inlineOuts, err := inline.Run("entry")
	if err != nil {
		t.Fatalf("inline run: %v", err)
	}

	ps := NewStore("").Precompute(prog, 0)
	summ := symexec.New(prog, pointer.Analyze(prog), engine.New(engine.Options{}))
	summ.Summaries = ps
	summOuts, err := summ.Run("entry")
	if err != nil {
		t.Fatalf("summary run: %v", err)
	}

	if ps.Instantiated() == 0 {
		t.Fatal("no call sites instantiated a summary")
	}
	got, want := pathKeys(summOuts), pathKeys(inlineOuts)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("summary paths differ from inline:\n got %v\nwant %v", got, want)
	}
	if len(inline.Reports) != 0 || len(summ.Reports) != 0 {
		t.Errorf("unexpected reports: inline %v summary %v", inline.Reports, summ.Reports)
	}
}

func TestArmCapFallsBack(t *testing.T) {
	prog := mustParse(t, callerSrc)
	ps := NewStore("").Precompute(prog, 1) // h has 2 arms
	if sum, reason := ps.Summary(fn(t, prog, "h")); sum != nil || !strings.Contains(reason, "cap") {
		t.Fatalf("h under cap 1: sum=%v reason=%q, want cap fallback", sum, reason)
	}
}

func TestSymbolicLoopFallsBack(t *testing.T) {
	prog := mustParse(t, admissibilitySrc)
	ps := NewStore("").Precompute(prog, 0)
	sum, reason := ps.Summary(fn(t, prog, "looped"))
	if sum != nil {
		t.Fatalf("looped must fall back (unbounded symbolic loop), got %d arms", len(sum.Arms))
	}
	if !strings.Contains(reason, "finding") {
		t.Errorf("looped fallback reason %q, want a loop-bound finding", reason)
	}
}

func summaryText(t *testing.T, ps *ProgramSummaries, f *microc.FuncDef) string {
	t.Helper()
	sum, reason := ps.Summary(f)
	if sum == nil {
		return "fallback: " + reason
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s h%d\n", sum.Fn, sum.Height)
	for _, arm := range sum.Arms {
		ret := "void"
		if arm.Ret != nil {
			ret = arm.Ret.String()
		}
		fmt.Fprintf(&b, "  [%s] -> %s\n", arm.Guard.String(), ret)
	}
	return b.String()
}

func TestDiskRoundTripAndWarmHits(t *testing.T) {
	dir := t.TempDir()
	prog := mustParse(t, callerSrc)

	cold := NewStore(dir)
	psCold := cold.Precompute(prog, 0)
	if psCold.Computed == 0 || psCold.DiskHits != 0 {
		t.Fatalf("cold run: computed=%d diskHits=%d", psCold.Computed, psCold.DiskHits)
	}

	// A fresh store on the same directory must answer entirely from disk.
	warm := NewStore(dir)
	psWarm := warm.Precompute(prog, 0)
	if psWarm.Computed != 0 {
		t.Errorf("warm run recomputed %d summaries", psWarm.Computed)
	}
	if psWarm.DiskHits == 0 {
		t.Error("warm run had no disk hits")
	}
	h := fn(t, prog, "h")
	if got, want := summaryText(t, psWarm, h), summaryText(t, psCold, h); got != want {
		t.Errorf("disk round-trip changed the summary:\n got %s\nwant %s", got, want)
	}

	// Same program through a decoded summary must instantiate the same
	// paths as the freshly computed one.
	run := func(ps *ProgramSummaries) []string {
		x := symexec.New(prog, pointer.Analyze(prog), engine.New(engine.Options{}))
		x.Summaries = ps
		outs, err := x.Run("entry")
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return pathKeys(outs)
	}
	if got, want := run(psWarm), run(psCold); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("disk-warm paths differ:\n got %v\nwant %v", got, want)
	}
}

func TestCorruptEntryDegradesToRecompute(t *testing.T) {
	dir := t.TempDir()
	prog := mustParse(t, callerSrc)
	psClean := NewStore(dir).Precompute(prog, 0)
	want := summaryText(t, psClean, fn(t, prog, "h"))

	files, err := filepath.Glob(filepath.Join(dir, "sum-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no summary files on disk: %v %v", files, err)
	}
	for _, f := range files {
		if err := os.Truncate(f, 7); err != nil {
			t.Fatal(err)
		}
	}

	poisoned := NewStore(dir)
	ps := poisoned.Precompute(prog, 0)
	if got := summaryText(t, ps, fn(t, prog, "h")); got != want {
		t.Errorf("poisoned store changed the summary:\n got %s\nwant %s", got, want)
	}
	st := poisoned.Stats()
	if st.Corrupt == 0 || st.DiskHits != 0 || st.Computed == 0 {
		t.Errorf("poisoned stats = %+v, want corrupt>0, diskHits=0, computed>0", st)
	}
	if poisoned.Faults().Of(fault.CacheCorrupt) == 0 {
		t.Error("corrupt entries must record a cache-corrupt fault")
	}

	// The recompute overwrote the bad entries: a further store is warm.
	healed := NewStore(dir)
	if ps := healed.Precompute(prog, 0); ps.Computed != 0 {
		t.Errorf("store not healed: recomputed %d", ps.Computed)
	}
}

func TestEditedFunctionRecomputesOnlyItsCallers(t *testing.T) {
	const v1 = `
int leaf(int a) { return a + 1; }
int other(int a) { return a + a; }
int mid(int a) { return leaf(a) + 1; }
int top(int a) { return mid(a) + other(a); }
`
	// leaf changes; other is untouched.
	v2 := strings.Replace(v1, "return a + 1;", "return a + 2;", 1)

	dir := t.TempDir()
	ps1 := NewStore(dir).Precompute(mustParse(t, v1), 0)
	if ps1.Computed != 4 {
		t.Fatalf("cold computed = %d, want 4", ps1.Computed)
	}
	ps2 := NewStore(dir).Precompute(mustParse(t, v2), 0)
	if ps2.Computed != 3 {
		t.Errorf("after editing leaf: computed = %d, want 3 (leaf, mid, top)", ps2.Computed)
	}
	if ps2.DiskHits != 1 {
		t.Errorf("after editing leaf: diskHits = %d, want 1 (other)", ps2.DiskHits)
	}
}

func TestFlushKeepsDiskTier(t *testing.T) {
	dir := t.TempDir()
	prog := mustParse(t, callerSrc)
	s := NewStore(dir)
	s.Precompute(prog, 0)
	s.Flush()
	if s.Stats().Entries != 0 {
		t.Fatal("flush must drop the memory tier")
	}
	ps := s.Precompute(prog, 0)
	if ps.Computed != 0 || ps.DiskHits == 0 {
		t.Errorf("post-flush precompute: computed=%d diskHits=%d, want disk reload", ps.Computed, ps.DiskHits)
	}
}
