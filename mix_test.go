package mix

import (
	"os"
	"strings"
	"testing"

	"mix/internal/corpus"
	"mix/internal/obs"
)

func TestCheckWellTyped(t *testing.T) {
	res := Check("let x = 1 in x + 2", Config{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Type != "int" {
		t.Fatalf("Type = %q", res.Type)
	}
}

func TestCheckIllTyped(t *testing.T) {
	res := Check("1 + true", Config{})
	if res.Err == nil {
		t.Fatal("expected error")
	}
}

func TestCheckParseError(t *testing.T) {
	res := Check("let x =", Config{})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "syntax error") {
		t.Fatalf("got %v", res.Err)
	}
}

func TestCheckHeadline(t *testing.T) {
	// The headline example: a dead ill-typed branch is accepted under
	// MIX and rejected by pure typing.
	src := "{s if true then {t 5 t} else {t 1 + true t} s}"
	res := Check(src, Config{})
	if res.Err != nil {
		t.Fatalf("MIX should accept: %v", res.Err)
	}
	stripped := "if true then 5 else 1 + true"
	res2 := Check(stripped, Config{})
	if res2.Err == nil {
		t.Fatal("pure typing should reject")
	}
}

func TestCheckEnvAndModes(t *testing.T) {
	res := Check("if b then 1 else 2", Config{
		Mode: StartSymbolic,
		Env:  map[string]string{"b": "bool"},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Paths != 2 {
		t.Fatalf("Paths = %d, want 2", res.Paths)
	}
	if res.SolverQueries == 0 {
		t.Fatal("expected solver queries in symbolic mode")
	}
	// Deferred conditionals: one path.
	res = Check("if b then 1 else 2", Config{
		Mode: StartSymbolic, DeferConditionals: true,
		Env: map[string]string{"b": "bool"},
	})
	if res.Err != nil || res.Paths != 1 {
		t.Fatalf("defer: %+v", res)
	}
}

func TestCheckRefEnv(t *testing.T) {
	res := Check("!r + 1", Config{
		Mode: StartSymbolic,
		Env:  map[string]string{"r": "int ref"},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Type != "int" {
		t.Fatalf("Type = %q", res.Type)
	}
	res = Check("x", Config{Env: map[string]string{"x": "float"}})
	if res.Err == nil {
		t.Fatal("unknown env type should error")
	}
}

func TestCheckReportsDiscarded(t *testing.T) {
	src := "{s if x = x then {t 1 t} else {t 1 + true t} s}"
	res := Check(src, Config{Env: map[string]string{"x": "int"}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	found := false
	for _, r := range res.Reports {
		if strings.Contains(r, "discarded") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a discarded report, got %v", res.Reports)
	}
}

func TestAnalyzeCCases(t *testing.T) {
	for _, c := range corpus.Cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			base, err := AnalyzeC(c.Source, CConfig{PureTypes: true})
			if err != nil {
				t.Fatal(err)
			}
			mixed, err := AnalyzeC(c.Source, CConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if len(mixed.Warnings) >= len(base.Warnings) && c.Name != corpus.Case4.Name {
				t.Fatalf("MIXY should reduce warnings: base %v, mixed %v",
					base.Warnings, mixed.Warnings)
			}
		})
	}
}

func TestAnalyzeCParseError(t *testing.T) {
	if _, err := AnalyzeC("int f(", CConfig{}); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestTestdataFiles(t *testing.T) {
	mixFiles := map[string]map[string]string{
		"testdata/unreachable.mix": nil,
		"testdata/signs.mix":       {"x": "int"},
		"testdata/div.mix":         nil,
	}
	for path, env := range mixFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		res := Check(string(src), Config{Env: env})
		if res.Err != nil {
			t.Errorf("%s: %v", path, res.Err)
		}
	}
	src, err := os.ReadFile("testdata/case1.mc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeC(string(src), CConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Errorf("case1.mc should be clean under MIXY: %v", res.Warnings)
	}
	pure, err := AnalyzeC(string(src), CConfig{PureTypes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pure.Warnings) == 0 {
		t.Error("case1.mc should warn under pure inference")
	}
}

func TestAnalyzeCStats(t *testing.T) {
	res, err := AnalyzeC(corpus.SyntheticVsftpd(6, 2), CConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksAnalyzed == 0 || res.FixpointIters == 0 {
		t.Fatalf("stats not populated: %+v", res)
	}
}

// TestSolverQueriesReconcileWithPool: the facade's query count is the
// solver pool's own count, not a second tally of the same queries.
func TestSolverQueriesReconcileWithPool(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := AnalyzeC(corpus.SyntheticVsftpd(12, 2), CConfig{Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	pool := reg.Gauge("solver.queries").Value()
	if pool == 0 {
		t.Fatal("the pool answered no queries")
	}
	if int64(res.SolverQueries) != pool {
		t.Fatalf("CResult.SolverQueries = %d, pool solver.queries = %d", res.SolverQueries, pool)
	}
	assertStagesPartition(t, reg)
}

// TestCoreSolverQueriesReconcileWithPool is the core-language twin on
// ladder-10: Result.SolverQueries is the pool's count alone.
func TestCoreSolverQueriesReconcileWithPool(t *testing.T) {
	src, vars := corpus.Ladder(10)
	env := map[string]string{}
	for _, v := range vars {
		env[v[0]] = v[1]
	}
	reg := obs.NewRegistry()
	res := Check(src, Config{Mode: StartSymbolic, Env: env, Metrics: reg})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	pool := reg.Gauge("solver.queries").Value()
	if pool == 0 {
		t.Fatal("the pool answered no queries")
	}
	if int64(res.SolverQueries) != pool {
		t.Fatalf("Result.SolverQueries = %d, pool solver.queries = %d", res.SolverQueries, pool)
	}
	assertStagesPartition(t, reg)
}

// assertStagesPartition checks that a run's published pipeline
// counters account for its queries: every query ends at the interval
// fast path or in components, each component that passes the fast path
// is a memo hit or miss, and each miss is a counterexample hit or a
// core solve (the solver.dpll.ns count).
func assertStagesPartition(t *testing.T, reg *obs.Registry) {
	t.Helper()
	g := func(name string) int64 { return reg.Gauge(name).Value() }
	queries, quick, slices := g("solver.queries"), g("solver.quick"), g("solver.slices")
	hits, misses, cex := g("solver.memo.hits"), g("solver.memo.misses"), g("solver.cex_hits")
	core := reg.Histogram("solver.dpll.ns").Count()
	if quick+slices < queries || slices != hits+misses || misses != cex+core {
		t.Fatalf("pipeline counters do not partition the work: queries=%d quick=%d slices=%d memo hits=%d misses=%d cex hits=%d core solves=%d",
			queries, quick, slices, hits, misses, cex, core)
	}
}
