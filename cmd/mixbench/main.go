// Command mixbench regenerates every experiment of the reproduction
// (DESIGN.md, Section 4: experiment index). Each table corresponds to
// an empirical claim of the paper; absolute numbers differ from the
// paper's 2010 testbed, but the shapes are the claims under test.
//
// Usage:
//
//	mixbench [-table E1..E8|X1..X12|all] [-cpuprofile f] [-memprofile f]
//	mixbench -diff old.json new.json
//
// The X4..X11 tables also write machine-readable BENCH_*.json
// artifacts, all sharing one envelope:
// {"schema_version": 1, "cpus": N, "gomaxprocs": N, "rows": [...]}.
//
// -cpuprofile/-memprofile capture pprof profiles of the selected
// tables (view with `go tool pprof`). X7 compares tracing-disabled
// time against the ladder-10 baseline recorded in BENCH_engine.json;
// with MIXBENCH_ENFORCE=1 in the environment it exits 1 when that
// overhead exceeds 5%. X8 measures state merging (-merge off vs
// joins); under MIXBENCH_ENFORCE=1 it exits 1 if joins is slower than
// off on the ladder family or more than 5% slower on the branch-light
// vsftpd workload. X9 measures compositional function summaries
// (inline vs summaries vs summaries warm from disk) on the
// shared-helper family; under MIXBENCH_ENFORCE=1 it exits 1 unless
// summaries are at least 2x faster than inlining. X10 measures
// distributed sharded exploration (DESIGN.md section 15) at 1 vs more
// shards; under MIXBENCH_ENFORCE=1 on a multi-cpu host it exits 1
// unless some sharded row beats the 1-shard coordinator. X11 measures
// fleet observability (DESIGN.md section 16): cross-process metric and
// trace aggregation on sharded ladder-10, per-request serving RED +
// flight-recorder cost, Prometheus render and snapshot-merge micro
// rows; under MIXBENCH_ENFORCE=1 it exits 1 if fleet metrics cost more
// than 5% over a telemetry-off sharded run. X12 measures the CDCL
// search core (DESIGN.md section 17) against the legacy chronological
// DPLL oracle on a hard conflict-driven family plus the easy
// ladder/vsftpd workloads; under MIXBENCH_ENFORCE=1 it exits 1 unless
// CDCL with pooled assumption reuse is at least 2x faster than DPLL on
// the hard family, or if the CDCL default regresses an easy workload
// by more than 5%.
//
// -diff old.json new.json joins two BENCH_*.json artifacts by row
// name and prints per-row speedups. It exits 1 when a deterministic
// count field (paths, merges) changed on a row without a deadline or
// fault, or when any row's wall clock regressed by more than
// -diff-max-regress (default 0.05, i.e. 5%; CI uses a looser value
// because same-host back-to-back runs wobble well past 5%).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"mix"
	"mix/internal/cexec"
	"mix/internal/cgen"
	"mix/internal/cliflags"
	"mix/internal/concrete"
	"mix/internal/core"
	"mix/internal/corpus"
	"mix/internal/engine"
	"mix/internal/lang"
	"mix/internal/langgen"
	"mix/internal/microc"
	"mix/internal/mixy"
	"mix/internal/obs"
	"mix/internal/pointer"
	"mix/internal/profiling"
	"mix/internal/serve"
	"mix/internal/shard"
	"mix/internal/signs"
	"mix/internal/solver"
	"mix/internal/summary"
	"mix/internal/sym"
	"mix/internal/symexec"
	"mix/internal/types"
)

func main() {
	shard.WorkerMain() // X10's worker processes re-exec this binary
	table := flag.String("table", "all", "experiment to run (E1..E8, X1..X12, or all)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected tables to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	diff := flag.Bool("diff", false, "compare two BENCH_*.json artifacts: mixbench -diff old.json new.json")
	diffMax := flag.Float64("diff-max-regress", 0.05, "-diff: fail on wall-clock regressions beyond this fraction")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: mixbench -diff [-diff-max-regress f] old.json new.json")
			os.Exit(2)
		}
		runDiff(flag.Arg(0), flag.Arg(1), *diffMax)
		return
	}

	if *cpuprofile != "" {
		stop, err := profiling.StartCPUProfile(*cpuprofile)
		must(err)
		defer stop()
	}
	runTables(*table)
	if *memprofile != "" {
		must(profiling.WriteHeapProfile(*memprofile))
	}
}

func runTables(table string) {
	tables := map[string]func(){
		"E1": tableE1, "E2": tableE2, "E3": tableE3, "E4": tableE4,
		"E5": tableE5, "E6": tableE6, "E7": tableE7, "E8": tableE8,
		"X1": tableX1, "X2": tableX2, "X3": tableX3, "X4": tableX4,
		"X5": tableX5, "X6": tableX6, "X7": tableX7, "X8": tableX8,
		"X9": tableX9, "X10": tableX10, "X11": tableX11, "X12": tableX12,
	}
	if table == "all" {
		for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10", "X11", "X12"} {
			tables[id]()
			fmt.Println()
		}
		return
	}
	run, ok := tables[table]
	if !ok {
		fmt.Fprintf(os.Stderr, "mixbench: unknown table %s\n", table)
		os.Exit(2)
	}
	run()
}

// benchSchemaVersion stamps every BENCH_*.json artifact. All the
// files share one envelope:
// {"schema_version": 1, "cpus": N, "gomaxprocs": N, "rows": [...]}.
// gomaxprocs records the effective parallelism limit, which can be
// lower than cpus (cgroup quota, GOMAXPROCS env) — timing rows from
// machines that merely report the same cpus are not comparable if
// their schedulers ran with different budgets.
const benchSchemaVersion = 1

// benchEnvelope is the common BENCH_*.json shape; Rows stays untyped
// so each table keeps its own row schema.
type benchEnvelope struct {
	SchemaVersion int `json:"schema_version"`
	CPUs          int `json:"cpus"`
	GoMaxProcs    int `json:"gomaxprocs"`
	Rows          any `json:"rows"`
}

// writeBench writes rows under the shared envelope.
func writeBench(path string, rows any) {
	out, err := json.MarshalIndent(benchEnvelope{
		SchemaVersion: benchSchemaVersion,
		CPUs:          runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Rows:          rows,
	}, "", "  ")
	must(err)
	must(os.WriteFile(path, append(out, '\n'), 0o644))
	fmt.Println("wrote", path)
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func envMap(pairs [][2]string) map[string]string {
	m := map[string]string{}
	for _, p := range pairs {
		m[p[0]] = p[1]
	}
	return m
}

// tableE1 — Section 2 idioms: pure type checking vs MIX.
func tableE1() {
	fmt.Println("E1 — Section 2 motivating idioms (core language)")
	fmt.Println("paper claim: each idiom false-positives under pure typing where marked, passes under MIX")
	w := newTab()
	fmt.Fprintln(w, "idiom\tpure types\tMIX\tfalse positive removed")
	for _, idiom := range corpus.CoreIdioms {
		env := envMap(idiom.Env)
		pure := mix.Check(idiom.Stripped, mix.Config{Env: env})
		mixed := mix.Check(idiom.Source, mix.Config{Env: env})
		pureStr, mixedStr := verdict(pure.Err), verdict(mixed.Err)
		removed := "-"
		if pure.Err != nil && mixed.Err == nil {
			removed = "yes"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", idiom.Name, pureStr, mixedStr, removed)
	}
	w.Flush()
}

func verdict(err error) string {
	if err == nil {
		return "accepts"
	}
	return "rejects"
}

// tableE2 — the four vsftpd case studies (Section 4.5).
func tableE2() {
	fmt.Println("E2 — vsftpd case studies (Section 4.5)")
	fmt.Println("paper claim: MIX(symbolic)/MIX(typed) annotations eliminate the false warnings of pure qualifier inference")
	w := newTab()
	fmt.Fprintln(w, "case\tbaseline warnings\tMIXY warnings\teliminated")
	for _, c := range corpus.Cases {
		baseCfg := mix.CConfig{PureTypes: true}
		var baseWarn int
		if c.Name == corpus.Case4.Name {
			// Case 4's baseline is symbolic execution without the
			// typed block (the fnptr failure), not pure typing.
			res, err := mix.AnalyzeC(corpus.Case4NoTyped.Source, mix.CConfig{})
			must(err)
			baseWarn = len(res.Warnings)
		} else {
			res, err := mix.AnalyzeC(c.Source, baseCfg)
			must(err)
			baseWarn = len(res.Warnings)
		}
		mixed, err := mix.AnalyzeC(c.Source, mix.CConfig{})
		must(err)
		elim := "no"
		if baseWarn > 0 && len(mixed.Warnings) == 0 {
			elim = "yes"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", c.Name, baseWarn, len(mixed.Warnings), elim)
	}
	// The combined program: warnings drop but context-insensitive
	// aliasing leaves residuals, reproducing Section 4.6.
	base, err := mix.AnalyzeC(corpus.VsftpdMini.Source, mix.CConfig{PureTypes: true})
	must(err)
	mixed, err := mix.AnalyzeC(corpus.VsftpdMini.Source, mix.CConfig{})
	must(err)
	fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", corpus.VsftpdMini.Name,
		len(base.Warnings), len(mixed.Warnings), "reduced (residual = §4.6 conflation)")
	w.Flush()
}

// tableE3 — analysis time vs number of symbolic blocks (Section 4.6).
func tableE3() {
	fmt.Println("E3 — MIXY cost vs symbolic blocks (Section 4.6)")
	fmt.Println("paper claim: <1s with 0 blocks, 5–25s with 1, ~60s with 2 — monotone, superlinear shape")
	w := newTab()
	fmt.Fprintln(w, "symbolic blocks\ttime\tvs k=0\tblocks analyzed\tfixpoint iters\tsolver queries")
	const n = 12
	var base time.Duration
	for _, k := range []int{0, 1, 2, 3} {
		src := corpus.SyntheticVsftpd(n, k)
		prog := parseC(src)
		start := time.Now()
		a, err := mixy.Run(prog, mixy.Options{})
		must(err)
		dur := time.Since(start)
		if k == 0 {
			base = dur
		}
		ratio := float64(dur) / float64(base)
		fmt.Fprintf(w, "%d\t%v\t%.1fx\t%d\t%d\t%d\n",
			k, dur.Round(time.Microsecond), ratio,
			a.Stats.BlocksAnalyzed, a.Stats.FixpointIters, a.Stats.SolverQueries)
	}
	w.Flush()
}

// tableE4 — deferral vs execution (Section 3.1).
func tableE4() {
	fmt.Println("E4 — fork vs defer at conditionals (Section 3.1)")
	fmt.Println("paper claim: SEIF-DEFER avoids forking but hands the solver harder disjunctive formulas")
	w := newTab()
	fmt.Fprintln(w, "conditionals\tmode\tpaths\tsolver queries\tmax slice\ttime")
	for _, n := range []int{4, 6, 8, 10} {
		src, env := corpus.Ladder(n)
		for _, mode := range []string{"fork", "defer"} {
			opts := core.Options{}
			if mode == "defer" {
				opts.IfMode = sym.DeferIf
			}
			checker := core.New(opts)
			tenv := types.EmptyEnv()
			for _, p := range env {
				tenv = tenv.Extend(p[0], types.Bool)
			}
			e := lang.MustParse(src)
			start := time.Now()
			_, err := checker.CheckSymbolic(tenv, e)
			must(err)
			dur := time.Since(start)
			es := checker.Engine().Snapshot()
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%v\n",
				n, mode, checker.Executor().Stats.Paths,
				es.SolverQueries, es.MaxSlice, dur.Round(time.Microsecond))
		}
	}
	w.Flush()
}

// tableE5 — the precision/efficiency frontier (Sections 1, 3.2).
func tableE5() {
	fmt.Println("E5 — precision/efficiency frontier")
	fmt.Println("paper claim: MIX is more precise than typing alone and more efficient than exclusive symbolic execution")
	w := newTab()
	fmt.Fprintln(w, "n\tanalysis\tverdict\tpaths\ttime")
	for _, n := range []int{8, 12} {
		plain, mixed, env := corpus.DeepConditionals(n)
		em := envMap(env)
		rows := []struct {
			name string
			src  string
			cfg  mix.Config
		}{
			{"pure types", plain, mix.Config{Env: em}},
			{"pure symbolic", plain, mix.Config{Mode: mix.StartSymbolic, Env: em}},
			{"MIX", mixed, mix.Config{Env: em}},
		}
		for _, r := range rows {
			start := time.Now()
			res := mix.Check(r.src, r.cfg)
			dur := time.Since(start)
			fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%v\n",
				n, r.name, verdict(res.Err), res.Paths, dur.Round(time.Microsecond))
		}
	}
	w.Flush()
}

// tableE6 — block caching (Section 4.3).
func tableE6() {
	fmt.Println("E6 — block caching (Section 4.3)")
	fmt.Println("paper claim: caching avoids repeated analysis of a block called from compatible contexts")
	w := newTab()
	fmt.Fprintln(w, "call sites\tcache\tblocks analyzed\tcache hits\ttime")
	for _, sites := range []int{4, 16} {
		src := cacheProgram(sites)
		for _, cache := range []bool{true, false} {
			prog := parseC(src)
			start := time.Now()
			a, err := mixy.Run(prog, mixy.Options{NoCache: !cache})
			must(err)
			dur := time.Since(start)
			on := "on"
			if !cache {
				on = "off"
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%v\n",
				sites, on, a.Stats.BlocksAnalyzed, a.Stats.CacheHits,
				dur.Round(time.Microsecond))
		}
	}
	w.Flush()
}

// cacheProgram routes `sites` typed functions through one symbolic
// block: every typed call re-enters blk with a compatible context, so
// with caching blk is analyzed once and hit sites-1 times.
func cacheProgram(sites int) string {
	var b strings.Builder
	b.WriteString("int *g;\n")
	b.WriteString("void blk(void) MIX(symbolic) {\n  g = NULL;\n  g = malloc(sizeof(int));\n}\n")
	for i := 0; i < sites; i++ {
		fmt.Fprintf(&b, "void t%d(void) MIX(typed) { blk(); }\n", i)
	}
	b.WriteString("void outer(void) MIX(symbolic) {\n")
	for i := 0; i < sites; i++ {
		fmt.Fprintf(&b, "  t%d();\n", i)
	}
	b.WriteString("}\n")
	b.WriteString("int main(void) {\n  outer();\n  return 0;\n}\n")
	return b.String()
}

// tableE7 — recursion between blocks (Section 4.4).
func tableE7() {
	fmt.Println("E7 — typed/symbolic block recursion (Section 4.4)")
	fmt.Println("paper claim: recursion between blocks is detected and resolved by assumption + fixed point")
	src := `
int *g;
int counter;
void typed_side(void) MIX(typed) {
  sym_side();
}
void sym_side(void) MIX(symbolic) {
  if (counter > 0) {
    counter = counter - 1;
    typed_side();
  }
  g = NULL;
}
int main(void) {
  sym_side();
  return 0;
}
`
	prog := parseC(src)
	start := time.Now()
	a, err := mixy.Run(prog, mixy.Options{})
	must(err)
	dur := time.Since(start)
	w := newTab()
	fmt.Fprintln(w, "metric\tvalue")
	fmt.Fprintf(w, "terminated\tyes (%v)\n", dur.Round(time.Microsecond))
	fmt.Fprintf(w, "recursion cuts\t%d\n", a.Stats.RecursionCuts)
	fmt.Fprintf(w, "fixpoint iterations\t%d\n", a.Stats.FixpointIters)
	g, _ := prog.Global("g")
	fmt.Fprintf(w, "g's nullness discovered\t%t\n", a.Inf.IsNull(a.Inf.VarQ(g).Ptr))
	w.Flush()
}

// tableE8 — soundness sampling (Theorem 1).
func tableE8() {
	fmt.Println("E8 — MIX soundness, randomized (Theorem 1)")
	fmt.Println("paper claim: mix-accepted programs never hit a run-time type error")
	const programs = 2000
	gen := langgen.New(20100605, langgen.DefaultConfig())
	accepted, rejected, unsound := 0, 0, 0
	for i := 0; i < programs; i++ {
		prog := gen.Closed()
		checker := core.New(core.Options{})
		_, err := checker.Check(types.EmptyEnv(), prog)
		if err != nil {
			rejected++
			continue
		}
		accepted++
		ev := concrete.NewEvaluator()
		_, cerr := ev.Eval(concrete.EmptyEnv(), concrete.NewMemory(), prog)
		if errors.Is(cerr, concrete.ErrTypeError) {
			unsound++
		}
	}
	w := newTab()
	fmt.Fprintln(w, "metric\tvalue")
	fmt.Fprintf(w, "programs generated\t%d\n", programs)
	fmt.Fprintf(w, "accepted by MIX\t%d\n", accepted)
	fmt.Fprintf(w, "rejected by MIX\t%d\n", rejected)
	fmt.Fprintf(w, "accepted programs with run-time type errors\t%d (must be 0)\n", unsound)
	w.Flush()
}

// tableX1 — extension: the sign-qualifier instantiation of MIX
// (mechanizing the paper's Section 2 local-refinement example and its
// claim that the approach generalizes to other analysis pairs).
func tableX1() {
	fmt.Println("X1 — extension: sign qualifiers mixed with the same symbolic executor")
	fmt.Println("paper claim (Section 2/6): the mix approach applies to many combinations; sign refinement after tests")
	w := newTab()
	fmt.Fprintln(w, "program\tpure sign table\tmixed analysis")
	rows := []struct {
		src string
		env func() *signs.Env
	}{
		{"if b then 1 + -1 else 0", func() *signs.Env {
			return signs.EmptyEnv().Extend("b", signs.Bool)
		}},
		{"if 0 < x then x + -1 + 1 else 1", func() *signs.Env {
			return signs.EmptyEnv().Extend("x", signs.Int(signs.Top))
		}},
		{"if 1 < x then x + -1 else x", func() *signs.Env {
			return signs.EmptyEnv().Extend("x", signs.Int(signs.Pos))
		}},
	}
	for _, r := range rows {
		var pure signs.Checker
		pureTy, pureErr := pure.Check(r.env(), lang.MustParse(r.src))
		pureStr := "rejects"
		if pureErr == nil {
			pureStr = pureTy.String()
		}
		m := signs.NewMixer()
		mixTy, mixErr := m.Check(r.env(), lang.MustParse("{s "+r.src+" s}"))
		mixStr := "rejects"
		if mixErr == nil {
			mixStr = mixTy.String()
		}
		fmt.Fprintf(w, "%s\t%s\t%s\n", r.src, pureStr, mixStr)
	}
	w.Flush()
}

// tableX2 — extension: the Section 3.2 type-and-effect refinement of
// SETYPBLOCK ("we could find the effect of e and limit applying this
// havoc operation").
func tableX2() {
	fmt.Println("X2 — extension: effect-aware typed blocks (Section 3.2 refinement)")
	fmt.Println("paper claim: an effect system would let SETYPBLOCK avoid havocking memory for pure blocks")
	w := newTab()
	fmt.Fprintln(w, "program\tplain SETYPBLOCK\teffect-aware")
	rows := []string{
		// A fact established before a pure typed block survives it.
		`{s let r = ref 0 in let _ = {t 1 + 1 t} in
		   if !r = 0 then 1 else (1 + true) s}`,
		// A writing typed block still havocs under both.
		`{s let r = ref 0 in let _ = {t (ref 9) := 1 t} in
		   if !r = 0 then 1 else (1 + true) s}`,
	}
	for _, src := range rows {
		plain := mix.Check(src, mix.Config{})
		eff := mix.Check(src, mix.Config{EffectAware: true})
		short := strings.Join(strings.Fields(src), " ")
		if len(short) > 60 {
			short = short[:57] + "..."
		}
		fmt.Fprintf(w, "%s\t%s\t%s\n", short, verdict(plain.Err), verdict(eff.Err))
	}
	w.Flush()
}

// tableX3 — extension: a randomized differential version of the
// paper's case study. Generated null-idiom programs are deterministic,
// so a concrete run (internal/cexec) decides ground truth; MIXY must
// warn on every crashing program (soundness) and should warn on far
// fewer clean programs than pure inference (precision).
func tableX3() {
	fmt.Println("X3 — extension: randomized differential against concrete execution")
	fmt.Println("paper claim (generalized): MIXY removes false positives without losing true positives")
	const programs = 400
	cfg := cgen.DefaultConfig()
	cfg.SymbolicEntry = true
	gen := cgen.New(20100605, cfg)
	crashes, missed, clean, pureFP, mixFP := 0, 0, 0, 0, 0
	for i := 0; i < programs; i++ {
		src := gen.Program()
		prog, perr := microc.Parse(src)
		if perr != nil {
			// One malformed generated program must not take down the
			// whole differential batch.
			fmt.Fprintf(os.Stderr, "mixbench: skipping malformed generated program %d: %v\n", i, perr)
			continue
		}
		_, runErr := cexec.New(prog, 1).Run("main")
		crashed := errors.Is(runErr, cexec.ErrNullDeref)
		mixed, err := mixy.Run(prog, mixy.Options{StrictInit: true})
		must(err)
		if crashed {
			crashes++
			if len(mixed.Warnings) == 0 {
				missed++
			}
			continue
		}
		clean++
		pure, err := mixy.Run(parseC(src), mixy.Options{IgnoreAnnotations: true, StrictInit: true})
		must(err)
		if len(pure.Warnings) > 0 {
			pureFP++
		}
		if len(mixed.Warnings) > 0 {
			mixFP++
		}
	}
	w := newTab()
	fmt.Fprintln(w, "metric\tvalue")
	fmt.Fprintf(w, "programs generated\t%d\n", programs)
	fmt.Fprintf(w, "concretely crashing\t%d\n", crashes)
	fmt.Fprintf(w, "crashing programs MIXY missed\t%d (must be 0)\n", missed)
	fmt.Fprintf(w, "concretely clean\t%d\n", clean)
	fmt.Fprintf(w, "clean programs pure inference warns on\t%d\n", pureFP)
	fmt.Fprintf(w, "clean programs MIXY warns on\t%d\n", mixFP)
	w.Flush()
}

// tableX4 — the parallel path-exploration engine: wall-clock scaling
// with workers on a fork-heavy program, and solver-memo effectiveness
// on the E6 cache corpus. Rows are also written to BENCH_engine.json.
func tableX4() {
	fmt.Println("X4 — parallel engine: workers scaling and solver memoization")
	fmt.Println("claims: workers=N explores the same paths faster than workers=1")

	type row struct {
		Bench         string `json:"bench"`
		Workers       int    `json:"workers"`
		Memo          bool   `json:"memo"`
		TimeNS        int64  `json:"time_ns"`
		Paths         int    `json:"paths"`
		Forks         int    `json:"forks"`
		Steals        int    `json:"steals"`
		MemoHits      int    `json:"memo_hits"`
		MemoMisses    int    `json:"memo_misses"`
		SolverQueries int    `json:"solver_queries"`
		QuickDecided  int    `json:"quick_decided"`
		Slices        int    `json:"slices"`
		CexHits       int    `json:"cex_hits"`
	}
	var rows []row

	w := newTab()
	fmt.Fprintln(w, "bench\tworkers\tmemo\tpaths\tforks\tsteals\tmemo hits\tmemo misses\tsolver queries\ttime")

	// (a) Workers scaling: a 10-conditional ladder (1024 forked paths)
	// explored symbolically, sequential vs parallel. Best of three runs
	// to damp scheduler noise; on a single-CPU host the parallel row
	// shows scheduler overhead (steals) rather than speedup.
	parWorkers := runtime.GOMAXPROCS(0)
	if parWorkers < 2 {
		parWorkers = 2
	}
	src, env := corpus.Ladder(10)
	em := envMap(env)
	for _, workers := range []int{1, parWorkers} {
		var best time.Duration
		var res mix.Result
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			r := mix.Check(src, mix.Config{Mode: mix.StartSymbolic, Env: em, Workers: workers})
			dur := time.Since(start)
			must(r.Err)
			if rep == 0 || dur < best {
				best, res = dur, r
			}
		}
		rows = append(rows, row{
			Bench: "ladder-10", Workers: workers, Memo: true,
			TimeNS: best.Nanoseconds(), Paths: res.Paths, Forks: res.Forks,
			Steals: res.Steals, MemoHits: res.MemoHits, MemoMisses: res.MemoMisses,
			SolverQueries: res.SolverQueries, QuickDecided: res.QuickDecided,
			Slices: res.Slices, CexHits: res.CexHits,
		})
		fmt.Fprintf(w, "ladder-10\t%d\ton\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			workers, res.Paths, res.Forks, res.Steals,
			res.MemoHits, res.MemoMisses, res.SolverQueries, best.Round(time.Microsecond))
	}

	// (b) Memoization: the E3 synthetic-vsftpd corpus (12 functions, 2
	// symbolic blocks) routed through MIXY's engine at one worker, memo
	// off vs on. The fixpoint re-proves the same per-cell nullability
	// formulas across iterations, which is exactly what the memo
	// deduplicates.
	memoSrc := corpus.SyntheticVsftpd(12, 2)
	for _, memo := range []bool{false, true} {
		var dur time.Duration
		var res mix.CResult
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			r, err := mix.AnalyzeC(memoSrc, mix.CConfig{Workers: 1, NoMemo: !memo})
			must(err)
			d := time.Since(start)
			if rep == 0 || d < dur {
				dur, res = d, r
			}
		}
		on := "off"
		if memo {
			on = "on"
		}
		rows = append(rows, row{
			Bench: "vsftpd-12x2", Workers: 1, Memo: memo,
			TimeNS: dur.Nanoseconds(), MemoHits: res.MemoHits,
			MemoMisses: res.MemoMisses, SolverQueries: res.SolverQueries,
			QuickDecided: res.QuickDecided, Slices: res.Slices, CexHits: res.CexHits,
		})
		fmt.Fprintf(w, "vsftpd-12x2\t%d\t%s\t-\t-\t-\t%d\t%d\t%d\t%v\n",
			1, on, res.MemoHits, res.MemoMisses, res.SolverQueries, dur.Round(time.Microsecond))
	}
	w.Flush()

	writeBench("BENCH_engine.json", rows)
}

// tableX5 — persistent symbolic state and the incremental solver
// pipeline: fork cost under wide memories (O(1) structurally shared
// clones vs the eager per-fork copy they replace), and path-condition
// solving through simplify → interval fast path → independence slicing
// → counterexample cache → memo. Rows are written to BENCH_solver.json.
func tableX5() {
	fmt.Println("X5 — O(1) forks: persistent state + incremental path-condition solving")
	fmt.Println("claims: forks share memory cells instead of copying them; sliced incremental solving absorbs the shared PC prefix")

	type row struct {
		Bench         string `json:"bench"`
		Workers       int    `json:"workers"`
		TimeNS        int64  `json:"time_ns"`
		Paths         int    `json:"paths"`
		MemClones     int64  `json:"mem_clones"`
		SharedCells   int64  `json:"shared_cells"`
		MemWrites     int64  `json:"mem_writes"`
		QuickDecided  int64  `json:"quick_decided"`
		Slices        int64  `json:"slices"`
		MaxSlice      int64  `json:"max_slice"`
		CexHits       int64  `json:"cex_hits"`
		MemoHits      int64  `json:"memo_hits"`
		SolverQueries int64  `json:"solver_queries"`
	}
	var rows []row

	w := newTab()
	fmt.Fprintln(w, "bench\tpaths\tclones\tshared cells\twrites\tquick\tslices\tmax slice\tcex hits\tmemo hits\tqueries\ttime")

	runBench := func(name, src string, maxPaths int) {
		prog := parseC(src)
		var best time.Duration
		var snap engine.Stats
		var clones, shared, writes int64
		var paths int
		for rep := 0; rep < 3; rep++ {
			eng := engine.New(engine.Options{Workers: 1})
			x := symexec.New(parseC(src), pointer.Analyze(prog), eng)
			if maxPaths > 0 {
				x.MaxPaths = maxPaths
			}
			c0, s0, wr0 := symexec.MemoryStats()
			start := time.Now()
			outs, err := x.Run("f")
			dur := time.Since(start)
			must(err)
			c1, s1, wr1 := symexec.MemoryStats()
			c, s, wr := c1-c0, s1-s0, wr1-wr0
			if rep == 0 || dur < best {
				best, snap, paths = dur, eng.Snapshot(), len(outs)
				clones, shared, writes = c, s, wr
			}
		}
		rows = append(rows, row{
			Bench: name, Workers: 1, TimeNS: best.Nanoseconds(),
			Paths: paths, MemClones: clones, SharedCells: shared, MemWrites: writes,
			QuickDecided: snap.QuickDecided, Slices: snap.Slices,
			MaxSlice: snap.MaxSlice, CexHits: snap.CexHits,
			MemoHits: snap.MemoHits, SolverQueries: snap.SolverQueries,
		})
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			name, paths, clones, shared, writes,
			snap.QuickDecided, snap.Slices, snap.MaxSlice, snap.CexHits,
			snap.MemoHits, snap.SolverQueries, best.Round(time.Microsecond))
	}

	// (a) Fork cost: a conditional tree over a wide memory. Every fork
	// clones the store; the seed's eager copy paid O(width) per fork,
	// the persistent store pays O(1) and `shared cells` counts exactly
	// the copies it avoided (clones × live cells).
	for _, width := range []int{64, 256} {
		runBench(fmt.Sprintf("wide-mem-%d", width), wideMemSrc(width, 6), 0)
	}

	// (b) Slicing: sequential two-variable guards over disjoint
	// variable pairs. Every path condition splits into singleton
	// independence components, so each distinct guard is proved once and
	// memo-hit ever after — queries grow with path count, DPLL work
	// with guard count.
	runBench("pairs-10", pairsSrc(10), 4096)

	// (c) The entangled worst case: chained guards x_i < x_{i+1} share
	// variables, so the component grows with depth (max slice ≈ chain
	// length) and slicing cannot split it — the honest upper bound on
	// per-query cost.
	runBench("chain-10", chainSrc(10), 4096)

	w.Flush()

	writeBench("BENCH_solver.json", rows)
}

// wideMemSrc builds a symbolic function that initializes `width` global
// int cells and then forks down a complete conditional tree of the
// given depth — the fork-cost microbenchmark.
func wideMemSrc(width, depth int) string {
	var b strings.Builder
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "int g%d;\n", i)
	}
	for i := 0; i < 1<<depth-1; i++ {
		fmt.Fprintf(&b, "int c%d;\n", i)
	}
	b.WriteString("int f(void) {\n")
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "g%d = %d;\n", i, i)
	}
	leaf := 0
	var emit func(node, d int)
	emit = func(node, d int) {
		if d == depth {
			fmt.Fprintf(&b, "return %d;\n", leaf)
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

// pairsSrc builds n sequential conditionals over disjoint variable
// pairs (x_i < y_i): 2^n paths whose conditions slice into singleton
// components.
func pairsSrc(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "int x%d;\nint y%d;\n", i, i)
	}
	b.WriteString("int f(void) {\nint acc;\nacc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "if (x%d < y%d) {\nacc = acc + 1;\n} else {\nacc = acc + 0;\n}\n", i, i)
	}
	b.WriteString("return acc;\n}\n")
	return b.String()
}

// chainSrc builds n sequential conditionals whose guards chain through
// shared variables (x_i < x_{i+1}), entangling every conjunct into one
// independence component.
func chainSrc(n int) string {
	var b strings.Builder
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&b, "int x%d;\n", i)
	}
	b.WriteString("int f(void) {\nint acc;\nacc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "if (x%d < x%d) {\nacc = acc + 1;\n} else {\nacc = acc + 0;\n}\n", i, i+1)
	}
	b.WriteString("return acc;\n}\n")
	return b.String()
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixbench:", err)
		os.Exit(1)
	}
}

// parseC parses bench source through the normal error path; a
// malformed program stops the run with a diagnostic, never a panic.
func parseC(src string) *microc.Program {
	prog, err := microc.Parse(src)
	must(err)
	return prog
}

// tableX6 measures verdict quality against the wall-clock budget: the
// degradation ladder trades certification for promptness, and the
// claim under test is that every budget produces a verdict — certified
// when the budget suffices, explicitly degraded (with the fault class
// named) when it does not, and never a hang or a crash.
func tableX6() {
	fmt.Println("X6 — graceful degradation: verdict quality vs. deadline")
	fmt.Println("claims: expired budgets terminate promptly with an explicit imprecision verdict; generous budgets certify the same type as an unbounded run")

	type row struct {
		Bench       string `json:"bench"`
		Deadline    string `json:"deadline"`
		Verdict     string `json:"verdict"` // "certified <type>" or "degraded (<class>)"
		Fault       string `json:"fault,omitempty"`
		Paths       int    `json:"paths"`
		Timeouts    int64  `json:"timeouts"`
		Truncations int64  `json:"paths_truncated"`
		TimeNS      int64  `json:"time_ns"`
	}
	var rows []row

	src, envPairs := corpus.Ladder(12) // 4096 paths
	env := map[string]string{}
	for _, p := range envPairs {
		env[p[0]] = p[1]
	}

	w := newTab()
	fmt.Fprintln(w, "bench\tdeadline\tverdict\tpaths\ttimeouts\ttruncated\ttime")
	for _, d := range []time.Duration{0, 10 * time.Second, 50 * time.Millisecond, time.Millisecond, time.Nanosecond} {
		cfg := mix.Config{Mode: mix.StartSymbolic, Env: env, Workers: 4, Deadline: d}
		start := time.Now()
		res := mix.Check(src, cfg)
		dur := time.Since(start)
		must(res.Err)
		verdict := "certified " + res.Type
		if res.Degraded {
			verdict = "degraded (" + res.Fault + ")"
		}
		label := "none"
		if d > 0 {
			label = d.String()
		}
		rows = append(rows, row{
			Bench: "ladder-12", Deadline: label, Verdict: verdict, Fault: res.Fault,
			Paths: res.Paths, Timeouts: res.Timeouts, Truncations: res.PathsTruncated,
			TimeNS: dur.Nanoseconds(),
		})
		fmt.Fprintf(w, "ladder-12\t%s\t%s\t%d\t%d\t%d\t%v\n",
			label, verdict, res.Paths, res.Timeouts, res.PathsTruncated,
			dur.Round(time.Microsecond))
	}
	w.Flush()

	writeBench("BENCH_faults.json", rows)
}

// tableX7 — the observability layer's own cost: ladder-10 explored
// with tracing off / deterministic / timed, raw tracer throughput,
// and registry snapshot cost. The off row compares against the
// ladder-10 workers=1 time recorded in BENCH_engine.json (X4, same
// host): instrumentation behind nil checks must stay in the noise.
// With MIXBENCH_ENFORCE=1, an off-row overhead above 5% fails the
// run.
func tableX7() {
	fmt.Println("X7 — observability: tracing overhead, event throughput, snapshot cost")
	fmt.Println("claims: disabled instrumentation is nil checks only (<=5% on ladder-10); enabled tracing and metric snapshots stay cheap")

	type row struct {
		Bench        string  `json:"bench"`
		Mode         string  `json:"mode,omitempty"` // off | det | timed
		Workers      int     `json:"workers,omitempty"`
		TimeNS       int64   `json:"time_ns"`
		BaselineNS   int64   `json:"baseline_ns,omitempty"`
		OverheadPct  float64 `json:"overhead_pct"`
		Events       int     `json:"events,omitempty"`
		EventsPerSec float64 `json:"events_per_sec,omitempty"`
		NSPerOp      float64 `json:"ns_per_op,omitempty"`
	}
	var rows []row

	w := newTab()
	fmt.Fprintln(w, "bench\tmode\ttime\tvs baseline\tevents\tevents/sec")

	// (a) End-to-end overhead on the X4 workload (ladder-10, workers=1,
	// best of seven — the minimum is the only stable statistic on a
	// noisy shared host, and the gate compares minima). The off mode
	// exercises exactly the instrumented code paths with nil tracer
	// and nil registry.
	src, env := corpus.Ladder(10)
	em := envMap(env)
	baseline := ladder10Baseline()
	for _, mode := range []string{"off", "det", "timed"} {
		var best time.Duration
		var events int
		for rep := 0; rep < 7; rep++ {
			cfg := mix.Config{Mode: mix.StartSymbolic, Env: em, Workers: 1}
			switch mode {
			case "det":
				cfg.Tracer = obs.NewTracer(obs.TraceOptions{Deterministic: true})
			case "timed":
				cfg.Tracer = obs.NewTracer(obs.TraceOptions{})
			}
			start := time.Now()
			res := mix.Check(src, cfg)
			dur := time.Since(start)
			must(res.Err)
			if rep == 0 || dur < best {
				best = dur
				events = len(cfg.Tracer.Events())
			}
		}
		r := row{Bench: "ladder-10", Mode: mode, Workers: 1, TimeNS: best.Nanoseconds()}
		vsBase := "-"
		if mode == "off" && baseline > 0 {
			r.BaselineNS = baseline
			r.OverheadPct = 100 * (float64(best.Nanoseconds()) - float64(baseline)) / float64(baseline)
			vsBase = fmt.Sprintf("%+.1f%%", r.OverheadPct)
		}
		if events > 0 {
			r.Events = events
			r.EventsPerSec = float64(events) / best.Seconds()
		}
		rows = append(rows, r)
		ev := "-"
		if events > 0 {
			ev = fmt.Sprintf("%d", events)
		}
		eps := "-"
		if r.EventsPerSec > 0 {
			eps = fmt.Sprintf("%.0f", r.EventsPerSec)
		}
		fmt.Fprintf(w, "ladder-10\t%s\t%v\t%s\t%s\t%s\n",
			mode, best.Round(time.Microsecond), vsBase, ev, eps)

		if mode == "off" && os.Getenv("MIXBENCH_ENFORCE") == "1" &&
			baseline > 0 && r.OverheadPct > 5 {
			w.Flush()
			fmt.Fprintf(os.Stderr,
				"mixbench: X7 disabled-tracing overhead %.1f%% exceeds 5%% gate (off=%v baseline=%v)\n",
				r.OverheadPct, best, time.Duration(baseline))
			os.Exit(1)
		}
	}

	// (b) Raw tracer throughput: one million solve events through a
	// span tree, timed mode (the most expensive: clock read + global
	// seq per event).
	{
		const emits = 1 << 20
		tr := obs.NewTracer(obs.TraceOptions{Cap: emits})
		sp := tr.Root("bench")
		start := time.Now()
		for i := 0; i < emits; i++ {
			sp.Solve("sat", 1)
		}
		dur := time.Since(start)
		eps := float64(emits) / dur.Seconds()
		rows = append(rows, row{
			Bench: "tracer-emit", TimeNS: dur.Nanoseconds(),
			Events: emits, EventsPerSec: eps,
			NSPerOp: float64(dur.Nanoseconds()) / emits,
		})
		fmt.Fprintf(w, "tracer-emit\ttimed\t%v\t-\t%d\t%.0f\n",
			dur.Round(time.Microsecond), emits, eps)
	}

	// (c) Registry snapshot cost at a realistic metric count (the
	// unified mix/mixy registry registers a few dozen series).
	{
		reg := obs.NewRegistry()
		for i := 0; i < 48; i++ {
			reg.Counter(fmt.Sprintf("bench.counter.%02d", i)).Add(int64(i))
			reg.Gauge(fmt.Sprintf("bench.gauge.%02d", i)).Set(int64(i))
		}
		for i := 0; i < 8; i++ {
			reg.Histogram(fmt.Sprintf("bench.hist.%02d", i)).Observe(int64(i) << 10)
		}
		const snaps = 2048
		start := time.Now()
		for i := 0; i < snaps; i++ {
			_ = reg.Snapshot()
		}
		dur := time.Since(start)
		rows = append(rows, row{
			Bench: "registry-snapshot", TimeNS: dur.Nanoseconds(),
			NSPerOp: float64(dur.Nanoseconds()) / snaps,
		})
		fmt.Fprintf(w, "registry-snapshot\t-\t%v\t-\t%d ops\t%.0f ns/op\n",
			dur.Round(time.Microsecond), snaps, float64(dur.Nanoseconds())/snaps)
	}
	w.Flush()

	writeBench("BENCH_obs.json", rows)
}

// ladder10Baseline reads the ladder-10 workers=1 time from
// BENCH_engine.json (written by X4, normally moments earlier on the
// same host) via the shared envelope loader that also backs -diff.
// 0 means no comparable baseline.
func ladder10Baseline() int64 {
	rows, _, err := loadBenchRows("BENCH_engine.json")
	if err != nil {
		return 0
	}
	for _, r := range rows {
		if r["bench"] == "ladder-10" && r["workers"] == float64(1) {
			if ns, ok := rowTimeNS(r); ok {
				return ns
			}
		}
	}
	return 0
}

// tableX8 — veritesting-style state merging (DESIGN.md section 12):
// path counts and wall-clock with -merge off vs joins at workers=1,
// best of seven. The ladder family is the worst case merging targets
// (2^k forked paths collapse to one merged state per rung); the
// synthetic vsftpd MIXY workload is branch-light, so merging must not
// slow it down. With MIXBENCH_ENFORCE=1 the run exits 1 if joins is
// slower than off on a ladder, or more than 5% slower on vsftpd-12x2.
func tableX8() {
	fmt.Println("X8 — state merging: -merge off vs joins (workers=1, best of 7)")
	fmt.Println("claims: guarded joins collapse ladder-k from 2^k paths to O(1) with large speedups; branch-light code is unaffected (<=5%)")

	type row struct {
		Bench   string  `json:"bench"`
		Merge   string  `json:"merge"`
		Workers int     `json:"workers"`
		Paths   int     `json:"paths,omitempty"`
		Merges  int     `json:"merges"`
		TimeNS  int64   `json:"time_ns"`
		Speedup float64 `json:"speedup,omitempty"` // off time / this time, same bench
	}
	var rows []row
	w := newTab()
	fmt.Fprintln(w, "bench\tmerge\tpaths\tmerges\ttime\tvs off")

	const reps = 7
	enforce := os.Getenv("MIXBENCH_ENFORCE") == "1"
	fail := func(format string, args ...any) {
		w.Flush()
		fmt.Fprintf(os.Stderr, format, args...)
		os.Exit(1)
	}

	for _, n := range []int{10, 14} {
		src, env := corpus.Ladder(n)
		em := envMap(env)
		name := fmt.Sprintf("ladder-%d", n)
		var offBest time.Duration
		for _, mode := range []string{"off", "joins"} {
			var best time.Duration
			var paths, merges int
			for rep := 0; rep < reps; rep++ {
				cfg := mix.Config{Mode: mix.StartSymbolic, Env: em, Workers: 1, Merge: mode}
				start := time.Now()
				res := mix.Check(src, cfg)
				dur := time.Since(start)
				must(res.Err)
				if rep == 0 || dur < best {
					best, paths, merges = dur, res.Paths, res.Merges
				}
			}
			r := row{Bench: name, Merge: mode, Workers: 1, Paths: paths, Merges: merges, TimeNS: best.Nanoseconds()}
			vs := "-"
			if mode == "off" {
				offBest = best
			} else {
				r.Speedup = float64(offBest) / float64(best)
				vs = fmt.Sprintf("%.1fx", r.Speedup)
			}
			rows = append(rows, r)
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%v\t%s\n",
				name, mode, paths, merges, best.Round(time.Microsecond), vs)
			if enforce && mode == "joins" && best > offBest {
				fail("mixbench: X8 %s joins (%v) slower than off (%v)\n", name, best, offBest)
			}
		}
	}

	// Branch-light control: merging fires rarely, so its bookkeeping
	// must stay in the noise.
	{
		src := corpus.SyntheticVsftpd(12, 2)
		var offBest time.Duration
		for _, mode := range []string{"off", "joins"} {
			var best time.Duration
			var merges int
			for rep := 0; rep < reps; rep++ {
				start := time.Now()
				res, err := mix.AnalyzeC(src, mix.CConfig{Merge: mode})
				dur := time.Since(start)
				must(err)
				if rep == 0 || dur < best {
					best, merges = dur, res.Merges
				}
			}
			r := row{Bench: "vsftpd-12x2", Merge: mode, Workers: 1, Merges: merges, TimeNS: best.Nanoseconds()}
			vs := "-"
			if mode == "off" {
				offBest = best
			} else {
				r.Speedup = float64(offBest) / float64(best)
				vs = fmt.Sprintf("%.2fx", r.Speedup)
			}
			rows = append(rows, r)
			fmt.Fprintf(w, "vsftpd-12x2\t%s\t-\t%d\t%v\t%s\n",
				mode, merges, best.Round(time.Microsecond), vs)
			if enforce && mode == "joins" && float64(best) > float64(offBest)*1.05 {
				fail("mixbench: X8 vsftpd-12x2 joins (%v) more than 5%% slower than off (%v)\n", best, offBest)
			}
		}
	}
	w.Flush()
	writeBench("BENCH_merge.json", rows)
}

// tableX9 — compositional function summaries (DESIGN.md section 14):
// wall-clock on the shared-helper family with calls inlined, answered
// from freshly computed summaries, and answered from a disk-warm
// summary store, best of seven. Inline cost compounds per call site
// (every call re-explores its helper against an ever-larger path
// condition); summaries pay each helper's exploration once. With
// MIXBENCH_ENFORCE=1 the run exits 1 unless summaries beat inlining
// by at least 2x on every row.
func tableX9() {
	fmt.Println("X9 — function summaries: inline vs summaries vs summaries warm from disk (best of 7)")
	fmt.Println("claims: analyzing each shared helper once and instantiating its arms at call sites beats re-inlining by >=2x; a disk-warm store also skips the one-time summarization")

	type row struct {
		Bench        string  `json:"bench"`
		Mode         string  `json:"mode"`
		TimeNS       int64   `json:"time_ns"`
		Speedup      float64 `json:"speedup,omitempty"` // inline time / this time, same bench
		Computed     int     `json:"summaries_computed"`
		DiskHits     int     `json:"summary_disk_hits"`
		Instantiated int64   `json:"summary_instantiated"`
	}
	var rows []row
	w := newTab()
	fmt.Fprintln(w, "bench\tmode\tsummaries\tdisk hits\tinstantiated\ttime\tvs inline")

	const reps = 7
	enforce := os.Getenv("MIXBENCH_ENFORCE") == "1"

	for _, p := range [][2]int{{2, 3}, {2, 4}} {
		name := fmt.Sprintf("shared-%dx%d", p[0], p[1])
		src := corpus.SharedHelpers(p[0], p[1])

		// The warm-disk mode reads a store primed by an untimed run;
		// each timed rep opens a fresh Store on the directory so it
		// starts memory-cold and must load from disk.
		dir, err := os.MkdirTemp("", "mixbench-x9-")
		must(err)
		defer os.RemoveAll(dir)
		{
			cfg := mix.CConfig{Entry: "entry", Merge: "joins", MergeCap: 8,
				Summaries: true, SummaryStore: summary.NewStore(dir)}
			_, err := mix.AnalyzeC(src, cfg)
			must(err)
		}

		var inlineBest time.Duration
		var warnings string
		for _, mode := range []string{"inline", "summaries", "summaries-warm"} {
			var best time.Duration
			var r row
			for rep := 0; rep < reps; rep++ {
				cfg := mix.CConfig{Entry: "entry", Merge: "joins", MergeCap: 8}
				switch mode {
				case "summaries":
					cfg.Summaries = true
				case "summaries-warm":
					cfg.Summaries = true
					cfg.SummaryStore = summary.NewStore(dir)
				}
				start := time.Now()
				res, err := mix.AnalyzeC(src, cfg)
				dur := time.Since(start)
				must(err)
				if res.Degraded {
					must(fmt.Errorf("X9 %s %s degraded: %s", name, mode, res.FaultDetail))
				}
				got := fmt.Sprint(res.Warnings)
				if mode == "inline" && rep == 0 {
					warnings = got
				} else if got != warnings {
					must(fmt.Errorf("X9 %s %s verdict drift: %q vs %q", name, mode, got, warnings))
				}
				if rep == 0 || dur < best {
					best = dur
					r = row{Bench: name, Mode: mode, Computed: res.SummaryComputed,
						DiskHits: res.SummaryDiskHits, Instantiated: res.SummaryInstantiated}
				}
			}
			r.TimeNS = best.Nanoseconds()
			vs := "-"
			if mode == "inline" {
				inlineBest = best
			} else {
				r.Speedup = float64(inlineBest) / float64(best)
				vs = fmt.Sprintf("%.1fx", r.Speedup)
			}
			rows = append(rows, r)
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%v\t%s\n",
				name, mode, r.Computed, r.DiskHits, r.Instantiated, best.Round(time.Microsecond), vs)
			if enforce && mode != "inline" && float64(inlineBest) < 2*float64(best) {
				w.Flush()
				fmt.Fprintf(os.Stderr, "mixbench: X9 %s %s (%v) not 2x faster than inline (%v)\n",
					name, mode, best, inlineBest)
				os.Exit(1)
			}
		}
	}
	w.Flush()
	writeBench("BENCH_summaries.json", rows)
}

// tableX10 — distributed sharded exploration (DESIGN.md section 15):
// wall-clock on the unmerged ladder family with the path tree split
// into 2^depth prefix subtrees dispatched to worker processes, best
// of three per shard count. The 1-shard row pays the full coordinator
// and process-spawn overhead with zero parallelism, so it is the
// honest baseline; speedup is that row's time over each wider run.
// Verdicts must agree across every shard count (the determinism
// contract), and with MIXBENCH_ENFORCE=1 on a multi-cpu host the run
// exits 1 unless some sharded row beats 1 shard.
func tableX10() {
	fmt.Println("X10 — sharded exploration: 1 vs N worker processes on ladder (depth 2, best of 3)")
	fmt.Println("claims: prefix subtrees are independent, so worker processes scale exploration; verdicts are shard-count-invariant")

	type row struct {
		Bench   string  `json:"bench"`
		Shards  int     `json:"shards"`
		Depth   int     `json:"depth"`
		Paths   int     `json:"paths"`
		TimeNS  int64   `json:"time_ns"`
		Speedup float64 `json:"speedup,omitempty"` // 1-shard time / this time, same bench
	}
	var rows []row
	w := newTab()
	fmt.Fprintln(w, "bench\tshards\tpaths\ttime\tvs 1 shard")

	const reps = 3
	enforce := os.Getenv("MIXBENCH_ENFORCE") == "1"
	shardCounts := []int{1, 2, 4}
	sped := false

	for _, n := range []int{12, 14} {
		name := fmt.Sprintf("ladder-%d", n)
		src, envPairs := corpus.Ladder(n)
		req := cliflags.Analysis{Symbolic: true, Merge: "off", Env: envMap(envPairs)}

		var oneShard time.Duration
		var verdict string
		for _, shards := range shardCounts {
			var best time.Duration
			var r row
			for rep := 0; rep < reps; rep++ {
				opts := shard.Options{Shards: shards, Depth: 2}
				start := time.Now()
				res, err := shard.ExploreCore(src, req, opts)
				dur := time.Since(start)
				must(err)
				if res.Degraded || res.Err != nil {
					must(fmt.Errorf("X10 %s at %d shards did not complete clean: %v %s", name, shards, res.Err, res.FaultDetail))
				}
				got := fmt.Sprintf("%s %v", res.Type, res.Reports)
				if shards == shardCounts[0] && rep == 0 {
					verdict = got
				} else if got != verdict {
					must(fmt.Errorf("X10 %s verdict drift at %d shards: %q vs %q", name, shards, got, verdict))
				}
				if rep == 0 || dur < best {
					best = dur
					r = row{Bench: name, Shards: shards, Depth: 2, Paths: res.Paths}
				}
			}
			r.TimeNS = best.Nanoseconds()
			vs := "-"
			if shards == 1 {
				oneShard = best
			} else {
				r.Speedup = float64(oneShard) / float64(best)
				vs = fmt.Sprintf("%.1fx", r.Speedup)
				if r.Speedup > 1 {
					sped = true
				}
			}
			rows = append(rows, r)
			fmt.Fprintf(w, "%s\t%d\t%d\t%v\t%s\n",
				name, shards, r.Paths, best.Round(time.Microsecond), vs)
		}
	}
	w.Flush()
	writeBench("BENCH_shard.json", rows)

	// A single-cpu host serializes the worker processes, so scaling is
	// only a claim where there is hardware to scale onto.
	if enforce {
		if runtime.NumCPU() <= 1 {
			fmt.Println("MIXBENCH_ENFORCE: single-cpu host, shard scaling not enforced")
		} else if !sped {
			fmt.Fprintln(os.Stderr, "mixbench: X10: no sharded row beat the 1-shard baseline on a multi-cpu host")
			os.Exit(1)
		} else {
			fmt.Println("MIXBENCH_ENFORCE: sharded exploration beat the 1-shard baseline: ok")
		}
	}
}

// tableX11 — fleet-wide observability (DESIGN.md section 16): what
// carrying telemetry across process boundaries costs. (a) Sharded
// ladder-10 with fleet telemetry off vs metrics vs metrics+trace —
// workers snapshot their registries into result frames and stream
// heartbeat deltas, so the metrics row prices the whole aggregation
// path; with MIXBENCH_ENFORCE=1 it may cost at most 5% over off.
// (b) The serving layer's always-on per-request observability (tenant
// RED + flight recorder) on warm verdict-cached requests through the
// full HTTP handler, flight recorder off vs on. (c) Micro rows: one
// Prometheus text-exposition render of a fleet-sized registry, and
// one worker-snapshot merge into a parent registry.
func tableX11() {
	fmt.Println("X11 — fleet observability: cross-process aggregation, serving RED + flight, scrape cost")
	fmt.Println("claims: fleet telemetry rides the existing shard frames (<=5% median paired overhead on sharded ladder-10); per-request serving obs, scrape rendering, and snapshot merging stay cheap")

	type row struct {
		Bench       string  `json:"bench"`
		Mode        string  `json:"mode,omitempty"`
		Shards      int     `json:"shards,omitempty"`
		TimeNS      int64   `json:"time_ns"`
		BaselineNS  int64   `json:"baseline_ns,omitempty"`
		OverheadPct float64 `json:"overhead_pct"`
		Events      int     `json:"events,omitempty"`
		Series      int     `json:"series,omitempty"`
		Bytes       int     `json:"bytes,omitempty"`
		NSPerOp     float64 `json:"ns_per_op,omitempty"`
	}
	var rows []row
	w := newTab()
	fmt.Fprintln(w, "bench\tmode\ttime\tvs off\tdetail")
	enforce := os.Getenv("MIXBENCH_ENFORCE") == "1"

	// (a) Cross-process aggregation on the X10 workload shape:
	// ladder-10 split across 2 worker processes at depth 2. The off row
	// spawns the same workers with telemetry disabled, so the delta is
	// exactly the fleet-obs machinery: worker-side instrumentation,
	// per-heartbeat metric deltas, final snapshot + trace splice.
	{
		src, envPairs := corpus.Ladder(10)
		req := cliflags.Analysis{Symbolic: true, Merge: "off", Env: envMap(envPairs)}
		modes := []string{"off", "metrics", "metrics+trace"}
		// Interleave the modes within each rep rather than running N
		// of one then N of the next, and gate on the *median of the
		// per-rep paired ratios* rather than a ratio of across-rep
		// minima. A sharded run spawns worker processes, so its
		// wall-clock drifts ±10% with machine load over the benchmark's
		// lifetime — far more than the few-percent delta the gate
		// measures. Within one rep the modes run back-to-back, so the
		// drift hits them equally and the paired ratio cancels it; the
		// median discards reps where a spawn hit a bad scheduling
		// window mid-pair.
		const reps = 11
		bestOf := map[string]time.Duration{}
		eventsOf := map[string]int{}
		ratios := map[string][]float64{}
		for rep := 0; rep < reps; rep++ {
			durs := map[string]time.Duration{}
			for _, mode := range modes {
				opts := shard.Options{Shards: 2, Depth: 2}
				switch mode {
				case "metrics":
					opts.Metrics = obs.NewRegistry()
				case "metrics+trace":
					opts.Metrics = obs.NewRegistry()
					opts.Tracer = obs.NewTracer(obs.TraceOptions{})
				}
				start := time.Now()
				res, err := shard.ExploreCore(src, req, opts)
				dur := time.Since(start)
				must(err)
				if res.Degraded || res.Err != nil {
					must(fmt.Errorf("X11 sharded ladder-10 (%s) did not complete clean: %v %s", mode, res.Err, res.FaultDetail))
				}
				durs[mode] = dur
				if b, ok := bestOf[mode]; !ok || dur < b {
					bestOf[mode] = dur
					if opts.Tracer != nil {
						eventsOf[mode] = len(opts.Tracer.Events())
					}
				}
			}
			for _, mode := range modes[1:] {
				ratios[mode] = append(ratios[mode],
					100*(float64(durs[mode])-float64(durs["off"]))/float64(durs["off"]))
			}
		}
		medianPct := func(v []float64) float64 {
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			return s[len(s)/2]
		}
		var offNS int64
		for _, mode := range modes {
			best, events := bestOf[mode], eventsOf[mode]
			r := row{Bench: "shard-ladder-10", Mode: mode, Shards: 2, TimeNS: best.Nanoseconds(), Events: events}
			vs := "-"
			if mode == "off" {
				offNS = best.Nanoseconds()
			} else {
				r.BaselineNS = offNS
				r.OverheadPct = medianPct(ratios[mode])
				vs = fmt.Sprintf("%+.1f%%", r.OverheadPct)
			}
			rows = append(rows, r)
			detail := "-"
			if events > 0 {
				detail = fmt.Sprintf("%d events", events)
			}
			fmt.Fprintf(w, "shard-ladder-10\t%s\t%v\t%s\t%s\n",
				mode, best.Round(time.Microsecond), vs, detail)
			if mode == "metrics" && enforce && r.OverheadPct > 5 {
				w.Flush()
				fmt.Fprintf(os.Stderr,
					"mixbench: X11 fleet-obs overhead %.1f%% (median paired, %d reps) exceeds 5%% gate on sharded ladder-10 (best metrics=%v off=%v)\n",
					r.OverheadPct, reps, best, time.Duration(offNS))
				os.Exit(1)
			}
		}
		if enforce {
			fmt.Println("MIXBENCH_ENFORCE: fleet metrics aggregation within 5% of telemetry-off: ok")
		}
	}

	// (b) Per-request serving observability: warm verdict-cached
	// ladder-10 requests through the full handler. Flight-off vs on
	// isolates the recorder; the tenant RED series are charged in both
	// (they are always on — that is the point of RED).
	{
		src, envPairs := corpus.Ladder(10)
		var sreq serve.Request
		sreq.Source = src
		sreq.Symbolic = true
		sreq.Merge = "off"
		sreq.Env = envMap(envPairs)
		sreq.Tenant = "bench"
		body, err := json.Marshal(sreq)
		must(err)
		var leanNS int64
		for _, mode := range []string{"flight-off", "flight-on"} {
			fs := -1
			if mode == "flight-on" {
				fs = 0
			}
			srv := serve.New(serve.Options{FlightSize: fs})
			ts := httptest.NewServer(srv.Handler())
			post := func() {
				resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
				must(err)
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					must(fmt.Errorf("X11 warm request: status %d", resp.StatusCode))
				}
			}
			post() // prime the verdict cache
			const n = 256
			var best time.Duration
			for rep := 0; rep < 7; rep++ {
				start := time.Now()
				for i := 0; i < n; i++ {
					post()
				}
				d := time.Since(start) / n
				if rep == 0 || d < best {
					best = d
				}
			}
			ts.Close()
			r := row{Bench: "serve-warm-request", Mode: mode, TimeNS: best.Nanoseconds()}
			vs := "-"
			if mode == "flight-off" {
				leanNS = best.Nanoseconds()
			} else {
				r.BaselineNS = leanNS
				r.OverheadPct = 100 * (float64(best.Nanoseconds()) - float64(leanNS)) / float64(leanNS)
				vs = fmt.Sprintf("%+.1f%%", r.OverheadPct)
			}
			rows = append(rows, r)
			fmt.Fprintf(w, "serve-warm-request\t%s\t%v\t%s\t%d reqs/rep\n",
				mode, best.Round(time.Microsecond), vs, n)
		}
	}

	// (c) Prometheus exposition render of a fleet-sized registry: a few
	// dozen engine series plus 256 tenants' RED series, the shape a
	// scraper sees on a busy daemon.
	{
		reg := obs.NewRegistry()
		for i := 0; i < 48; i++ {
			reg.Counter(fmt.Sprintf("engine.counter.%02d", i)).Add(int64(i + 1))
		}
		for t := 0; t < 256; t++ {
			stem := fmt.Sprintf("serve.tenant.t%03d.", t)
			reg.Counter(stem + "requests").Add(100)
			reg.Counter(stem + "errors").Add(1)
			reg.Histogram(stem + "latency.ns").Observe(int64(t+1) << 10)
		}
		snap := reg.Snapshot()
		var buf bytes.Buffer
		must(obs.WritePromSnapshot(&buf, snap))
		nbytes := buf.Len()
		const iters = 512
		start := time.Now()
		for i := 0; i < iters; i++ {
			buf.Reset()
			must(obs.WritePromSnapshot(&buf, snap))
		}
		dur := time.Since(start)
		r := row{
			Bench: "prom-render", TimeNS: dur.Nanoseconds(),
			Series: len(snap.Metrics), Bytes: nbytes,
			NSPerOp: float64(dur.Nanoseconds()) / iters,
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "prom-render\t-\t%v\t-\t%d series, %d bytes, %.0f ns/op\n",
			dur.Round(time.Microsecond), r.Series, nbytes, r.NSPerOp)
	}

	// (d) Worker-snapshot merge: the coordinator-side cost of folding
	// one worker's final registry into the parent, at a realistic
	// worker series count.
	{
		worker := obs.NewRegistry()
		for i := 0; i < 32; i++ {
			worker.Counter(fmt.Sprintf("engine.counter.%02d", i)).Add(int64(i + 1))
			worker.Gauge(fmt.Sprintf("engine.gauge.%02d", i)).Set(int64(i))
		}
		for i := 0; i < 8; i++ {
			worker.Histogram(fmt.Sprintf("solver.hist.%02d", i)).Observe(int64(i) << 10)
		}
		snap := worker.Snapshot()
		parent := obs.NewRegistry()
		const iters = 4096
		start := time.Now()
		for i := 0; i < iters; i++ {
			parent.Merge(snap)
		}
		dur := time.Since(start)
		r := row{
			Bench: "registry-merge", TimeNS: dur.Nanoseconds(),
			Series:  len(snap.Metrics),
			NSPerOp: float64(dur.Nanoseconds()) / iters,
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "registry-merge\t-\t%v\t-\t%d series, %.0f ns/op\n",
			dur.Round(time.Microsecond), r.Series, r.NSPerOp)
	}
	w.Flush()

	writeBench("BENCH_obsfleet.json", rows)
}

// tableX12 — the CDCL search core vs the legacy chronological DPLL
// (DESIGN.md section 17). Three claims, three row families:
//
//   - hard-8x4: a satisfiable stalled or-chain prefix (every clause
//     needs two decisions before it propagates) conjoined per query
//     with a child-local contradiction. Chronological DPLL re-refutes
//     the contradiction once per busy-prefix assignment — exponential
//     in the prefix length — while CDCL's first conflict learns a unit
//     clause over the contradiction and backjumps to level 0. The
//     cdcl+assume mode additionally solves the four children on one
//     warm solver via the assumption stack, the way the engine pool
//     asserts forked path conditions, so the shared prefix is encoded
//     once instead of four times.
//   - ladder-N: the propagation-friendly workload the seed's DPLL was
//     already good at, run through the full mix pipeline under each
//     -solver setting. The core swap must not tax it.
//   - vsftpd-12x2: the branch-light MIXY fixpoint workload, same
//     contract.
//
// With MIXBENCH_ENFORCE=1 the run exits 1 unless cdcl+assume beats
// dpll by at least 2x on the hard family, and whenever default cdcl is
// more than 5% slower than dpll on a ladder/vsftpd row. Rows land in
// BENCH_cdcl.json.
func tableX12() {
	fmt.Println("X12 — CDCL core: learned clauses, incremental assumptions")
	fmt.Println("claims: conflict learning collapses the hard family; warm assumption reuse beats re-encoding; the core swap does not tax easy workloads")

	type row struct {
		Bench     string `json:"bench"`
		Mode      string `json:"mode"`
		TimeNS    int64  `json:"time_ns"`
		Queries   int    `json:"queries"`
		Decisions int    `json:"decisions"`
		Conflicts int    `json:"conflicts"`
		Learned   int    `json:"learned"`
		Paths     int    `json:"paths,omitempty"`
	}
	var rows []row
	w := newTab()
	fmt.Fprintln(w, "bench\tmode\tqueries\tdecisions\tconflicts\tlearned\ttime")
	const reps = 7
	enforce := os.Getenv("MIXBENCH_ENFORCE") == "1"
	best := map[string]time.Duration{} // "bench/mode" -> best wall clock

	// The hard family: busy or-chain prefix (shared by every child)
	// plus one contradiction per child over child-local variables.
	const busyN, children = 8, 4
	bv := func(p string, i int) solver.Formula {
		return solver.BoolVar{Name: p + string(rune('a'+i%26)) + string(rune('0'+i/26))}
	}
	prefix := []solver.Formula{solver.Disj(bv("y", 0), bv("z", 0), bv("w", 0))}
	for i := 1; i <= busyN; i++ {
		prefix = append(prefix, solver.Disj(
			solver.NewNot(bv("w", i-1)), bv("y", i), bv("z", i), bv("w", i)))
	}
	contra := func(child int) solver.Formula {
		a, b := bv("ca", child), bv("cb", child)
		return solver.Conj(
			solver.NewOr(a, b),
			solver.NewOr(a, solver.NewNot(b)),
			solver.NewOr(solver.NewNot(a), b),
			solver.NewOr(solver.NewNot(a), solver.NewNot(b)),
		)
	}
	mkSolver := func(algo solver.Algo) *solver.Solver {
		s := solver.New()
		s.Algo = algo
		s.MaxDecisions = 1 << 26 // room for DPLL's exponential refutations
		return s
	}
	hardBench := fmt.Sprintf("hard-%dx%d", busyN, children)
	record := func(bench, mode string, r row, dur time.Duration) {
		key := bench + "/" + mode
		if b, ok := best[key]; !ok || dur < b {
			best[key] = dur
		}
		if dur == best[key] {
			r.Bench, r.Mode, r.TimeNS = bench, mode, dur.Nanoseconds()
			replaced := false
			for i := range rows {
				if rows[i].Bench == bench && rows[i].Mode == mode {
					rows[i], replaced = r, true
				}
			}
			if !replaced {
				rows = append(rows, r)
			}
		}
	}
	hardModes := []struct {
		mode string
		algo solver.Algo
		warm bool // one solver + assumption stack across children
	}{
		{"dpll", solver.AlgoDPLL, false},
		{"cdcl", solver.AlgoCDCL, false},
		{"cdcl+assume", solver.AlgoCDCL, true},
	}
	// Reps are the outer loop everywhere in this table: interleaving
	// the modes keeps slow drift (CPU frequency, heap growth) from
	// biasing whichever mode happens to run last.
	for rep := 0; rep < reps; rep++ {
		for _, m := range hardModes {
			var stats solver.Stats
			start := time.Now()
			if m.warm {
				s := mkSolver(m.algo)
				for child := 0; child < children; child++ {
					sat, err := s.SatAssuming(append(append([]solver.Formula{}, prefix...), contra(child))...)
					must(err)
					if sat {
						must(fmt.Errorf("hard family child %d: want unsat", child))
					}
				}
				stats = s.Stats
			} else {
				for child := 0; child < children; child++ {
					s := mkSolver(m.algo)
					sat, err := s.Sat(solver.Conj(append(append([]solver.Formula{}, prefix...), contra(child))...))
					must(err)
					if sat {
						must(fmt.Errorf("hard family child %d: want unsat", child))
					}
					stats.Decisions += s.Stats.Decisions
					stats.Conflicts += s.Stats.Conflicts
					stats.LearnedClauses += s.Stats.LearnedClauses
				}
			}
			record(hardBench, m.mode, row{
				Queries: children, Decisions: stats.Decisions,
				Conflicts: stats.Conflicts, Learned: stats.LearnedClauses,
			}, time.Since(start))
		}
	}

	// The easy workloads through the full pipeline: the regression
	// guard for making CDCL the default core.
	easyModes := []string{"dpll", "cdcl"}
	for _, n := range []int{10, 12} {
		src, envPairs := corpus.Ladder(n)
		env := envMap(envPairs)
		for rep := 0; rep < reps; rep++ {
			for _, mode := range easyModes {
				start := time.Now()
				res := mix.Check(src, mix.Config{
					Mode: mix.StartSymbolic, Env: env, Workers: 1, Solver: mode,
				})
				must(res.Err)
				record(fmt.Sprintf("ladder-%d", n), mode, row{
					Queries: res.SolverQueries, Paths: res.Paths,
				}, time.Since(start))
			}
		}
	}
	vsftpdSrc := corpus.SyntheticVsftpd(12, 2)
	for rep := 0; rep < reps; rep++ {
		for _, mode := range easyModes {
			start := time.Now()
			res, err := mix.AnalyzeC(vsftpdSrc, mix.CConfig{Solver: mode})
			must(err)
			_ = res
			record("vsftpd-12x2", mode, row{}, time.Since(start))
		}
	}

	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Bench != rows[j].Bench {
			return rows[i].Bench < rows[j].Bench
		}
		return rows[i].Mode < rows[j].Mode
	})
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%v\n",
			r.Bench, r.Mode, r.Queries, r.Decisions, r.Conflicts, r.Learned,
			time.Duration(r.TimeNS).Round(time.Microsecond))
	}
	w.Flush()

	writeBench("BENCH_cdcl.json", rows)

	if enforce {
		fail := false
		dpllHard, assumeHard := best[hardBench+"/dpll"], best[hardBench+"/cdcl+assume"]
		if assumeHard*2 > dpllHard {
			fmt.Fprintf(os.Stderr, "MIXBENCH_ENFORCE: cdcl+assume (%v) is not 2x faster than dpll (%v) on %s\n",
				assumeHard, dpllHard, hardBench)
			fail = true
		} else {
			fmt.Printf("MIXBENCH_ENFORCE: cdcl+assume %.1fx faster than dpll on %s: ok\n",
				float64(dpllHard)/float64(assumeHard), hardBench)
		}
		for _, bench := range []string{"ladder-10", "ladder-12", "vsftpd-12x2"} {
			d, c := best[bench+"/dpll"], best[bench+"/cdcl"]
			if float64(c) > float64(d)*1.05 {
				fmt.Fprintf(os.Stderr, "MIXBENCH_ENFORCE: cdcl (%v) regresses %s by more than 5%% over dpll (%v)\n",
					c, bench, d)
				fail = true
			}
		}
		if fail {
			os.Exit(1)
		}
		fmt.Println("MIXBENCH_ENFORCE: cdcl within 5% of dpll on every easy row: ok")
	}
}
