// Package mix is a from-scratch reproduction of "Mixing Type Checking
// and Symbolic Execution" (Khoo, Chang, Foster — PLDI 2010).
//
// It provides two entry points, mirroring the paper's two systems:
//
//   - The MIX core system (Section 3): a small ML-like language with
//     typed blocks {t e t} and symbolic blocks {s e s}, checked by an
//     off-the-shelf type checker and an off-the-shelf symbolic
//     executor connected only by the two mix rules. Use Parse and
//     Check.
//
//   - The MIXY prototype (Section 4): null/nonnull type qualifier
//     inference mixed with a symbolic executor over MicroC (a C
//     subset), switching at functions annotated MIX(typed) or
//     MIX(symbolic). Use ParseC and AnalyzeC.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced evaluation.
package mix

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"time"

	"mix/internal/core"
	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/lang"
	"mix/internal/microc"
	"mix/internal/mixy"
	"mix/internal/obs"
	"mix/internal/solver"
	"mix/internal/summary"
	"mix/internal/sym"
	"mix/internal/symexec"
	"mix/internal/types"
)

// Mode selects the analysis of the outermost program scope ("we leave
// unspecified whether the outermost scope is a typed or a symbolic
// block; MIX can handle either case").
type Mode int

const (
	// StartTyped treats the program as wrapped in a typed block.
	StartTyped Mode = iota
	// StartSymbolic treats the program as wrapped in a symbolic block.
	StartSymbolic
)

// Config configures a core-language mixed check.
type Config struct {
	// Mode selects the outermost analysis.
	Mode Mode
	// Unsound skips the exhaustive() tautology check, modeling
	// bug-finding-style symbolic execution.
	Unsound bool
	// DeferConditionals uses the SEIF-DEFER rule instead of forking.
	DeferConditionals bool
	// SolverAddrEq decides OVERWRITE-OK address equality with the
	// solver under the path condition instead of syntactically.
	SolverAddrEq bool
	// EffectAware skips the SETYPBLOCK memory havoc for typed blocks a
	// syntactic effect analysis proves write-free (the paper's
	// Section 3.2 type-and-effect refinement).
	EffectAware bool
	// Merge selects the veritesting-style state-merging mode for
	// forked conditionals: "off", "joins", or "aggressive" (DESIGN.md
	// section 12). The empty string keeps merging off — the library
	// default; the CLIs default to "joins".
	Merge string
	// Env declares free variables of the program as name -> type
	// syntax, e.g. "int", "bool", "int ref", "int -> int".
	Env map[string]string
	// Workers bounds the path-exploration engine's parallel workers.
	// Every check runs on the engine and its memoizing solver pipeline;
	// 0 or 1 explores sequentially.
	Workers int
	// MaxPaths bounds the engine's total path budget (0 = unlimited);
	// exceeding it degrades the check to an uncertified (Degraded)
	// result.
	MaxPaths int
	// NoMemo disables the engine's solver memo table.
	NoMemo bool
	// Cache, when non-nil, is a shared cross-run solver cache
	// (engine.NewCache): this check reads and extends it instead of
	// building private caches, so back-to-back checks skip re-proving
	// formulas an earlier run already decided. Verdicts are
	// byte-identical to cold runs — a hit only skips work — and hit
	// counters are visible on Result and engine.Cache.Stats. The
	// serving daemon (cmd/mixd) shares one Cache across all requests.
	Cache *engine.Cache
	// CacheDir, when non-empty (and Cache is nil), backs this check's
	// solver cache with a persistent on-disk tier: definite verdicts
	// and counterexample models load from the directory before the run
	// and are written back after it, so a cold process re-uses what an
	// earlier process proved. Ignored when Cache is provided — a shared
	// cache carries its own Dir (engine.CacheOptions.Dir).
	CacheDir string
	// Solver selects the search core for every solver in the run:
	// "cdcl" (the default — conflict-driven clause learning with
	// incremental assumption stacks) or "dpll" (the legacy
	// chronological core, kept as a differential oracle). Empty means
	// cdcl.
	Solver string
	// MaxAtoms, MaxDecisions, and MaxLearned override the per-query
	// solver resource bounds: decision atoms per query, branch
	// decisions per query, and learned clauses retained by the CDCL
	// core. 0 keeps each solver default (256, 2^20, 10000).
	MaxAtoms     int
	MaxDecisions int
	MaxLearned   int
	// Deadline bounds the whole check's wall-clock time (0 = none).
	// An expired deadline degrades the result instead of hanging or
	// failing: exploration stops cooperatively and the check reports
	// Degraded with the fault class.
	Deadline time.Duration
	// SolverTimeout bounds each individual solver query (0 = none).
	SolverTimeout time.Duration
	// Context, when non-nil, is the parent context for the run;
	// cancellation degrades the check the same way a deadline does.
	Context context.Context
	// FaultInjector arms deterministic fault injection at the engine's
	// fixed injection points (chaos tests only; nil in production).
	FaultInjector *fault.Injector
	// Tracer, when non-nil, records structured path-exploration events
	// (fork/join/solve/degrade) for the run; flush it with WriteJSONL
	// or WriteChromeTrace after the check returns.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the run's metrics under their
	// canonical dotted names once the check completes (plus live solver
	// pipeline histograms during it).
	Metrics *obs.Registry
	// ShardPrefix, when non-empty, restricts every top-level symbolic
	// block to the subtree reached by forcing its first
	// len(ShardPrefix) fork decisions (false = then, true = else);
	// pruned sibling guards keep the exhaustiveness check sound per
	// shard, and Result.BlockTypes carries the per-block type
	// fingerprints the shard coordinator compares across work items
	// (DESIGN.md section 15). This is the shard-worker hook — use
	// shard.ExploreCore (the -shards flag) rather than setting it
	// directly. Incompatible with DeferConditionals, whose merged
	// conditionals consume no fork decisions.
	ShardPrefix []bool
}

// Result is the outcome of a mixed check.
type Result struct {
	// Type is the derived type (as a string), when the check passed.
	Type string
	// Err is the first error, when the check failed.
	Err error
	// Reports lists every symbolic-execution finding, including
	// discarded infeasible ones (how MIX removes false positives).
	Reports []string
	// Paths is the number of symbolic paths explored.
	Paths int
	// Merges is the number of join-point state merges performed (only
	// nonzero with Config.Merge enabled or DeferConditionals).
	Merges int
	// SolverQueries counts the queries the engine's solver pool
	// answered.
	SolverQueries int
	// Engine statistics: conditional forks, forks whose branch ran on
	// another worker, solver memo hits and misses, and time spent
	// inside the solver.
	Forks      int
	Steals     int
	MemoHits   int
	MemoMisses int
	SolverTime time.Duration
	// Solver-pipeline statistics: queries decided by the constant-time
	// interval fast path, independence components that reached the
	// memo/core stage, the largest such component (in conjuncts), and
	// components satisfied by a cached counterexample.
	QuickDecided int
	Slices       int
	MaxSlice     int
	CexHits      int
	// Degraded reports that exploration was truncated by a classified
	// fault (deadline, cancellation, budget, solver limit, recovered
	// panic). A degraded check certifies nothing — Type is empty — but
	// it is not a rejection either: Err is nil, and Fault/FaultDetail
	// name the class and the budget that tripped.
	Degraded    bool
	Fault       string
	FaultDetail string
	// Classified-fault counters for the run: expired
	// deadlines/cancellations, worker panics recovered, and paths
	// truncated by path/step budgets.
	Timeouts        int64
	PanicsRecovered int64
	PathsTruncated  int64
	// BlockTypes, under Config.ShardPrefix, fingerprints each top-level
	// symbolic block's agreed type ("pos type", program order); the
	// shard coordinator compares the lists across work items to catch
	// type disagreements split across shards.
	BlockTypes []string
}

// Parse parses a core-language program.
//
//	expr ::= let x = e in e | if e then e else e | e := e | e && e
//	       | e = e | e + e | not e | !e | ref e | n | true | false | x
//	       | (e) | {t e t} | {s e s}
func Parse(src string) (lang.Expr, error) { return lang.Parse(src) }

// Check runs the mixed analysis on a core-language program.
func Check(src string, cfg Config) Result {
	e, err := lang.Parse(src)
	if err != nil {
		return Result{Err: err}
	}
	return CheckExpr(e, cfg)
}

// Validate reports the first inconsistent option as a descriptive
// error, or nil. The CLIs call it before running (exit 2) and the
// serving daemon turns the error into a 400 response; Check/CheckExpr
// also call it, so library misuse surfaces as a descriptive Result.Err
// instead of a silent clamp.
func (cfg Config) Validate() error {
	switch {
	case cfg.Mode != StartTyped && cfg.Mode != StartSymbolic:
		return fmt.Errorf("mix: unknown Mode %d (want StartTyped or StartSymbolic)", cfg.Mode)
	case cfg.Workers < 0:
		return fmt.Errorf("mix: negative Workers %d (0 means one worker)", cfg.Workers)
	case cfg.MaxPaths < 0:
		return fmt.Errorf("mix: negative MaxPaths budget %d (0 means unlimited)", cfg.MaxPaths)
	case cfg.Deadline < 0:
		return fmt.Errorf("mix: negative Deadline %v (0 means none)", cfg.Deadline)
	case cfg.SolverTimeout < 0:
		return fmt.Errorf("mix: negative SolverTimeout %v (0 means none)", cfg.SolverTimeout)
	case cfg.MaxAtoms < 0:
		return fmt.Errorf("mix: negative MaxAtoms %d (0 means the solver default)", cfg.MaxAtoms)
	case cfg.MaxDecisions < 0:
		return fmt.Errorf("mix: negative MaxDecisions %d (0 means the solver default)", cfg.MaxDecisions)
	case cfg.MaxLearned < 0:
		return fmt.Errorf("mix: negative MaxLearned %d (0 means the solver default)", cfg.MaxLearned)
	}
	if _, err := solver.ParseAlgo(cfg.Solver); err != nil {
		return fmt.Errorf("mix: %w", err)
	}
	if cfg.Merge != "" {
		if _, err := engine.ParseMergeMode(cfg.Merge); err != nil {
			return fmt.Errorf("mix: bad Merge mode %q: %w", cfg.Merge, err)
		}
	}
	if len(cfg.ShardPrefix) > 0 && cfg.DeferConditionals {
		return fmt.Errorf("mix: ShardPrefix set with DeferConditionals — deferred conditionals merge instead of forking, so there are no fork decisions to shard on")
	}
	return nil
}

// engineOptions completes the engine options shared by Config and
// CConfig: the cache (a private per-run one over cacheDir when no
// shared Cache is given; the caller persists it after the run) and the
// solver knobs. Validate has already vetted the algorithm name, so a
// parse error here falls back to the default core rather than
// panicking.
func engineOptions(o engine.Options, cacheDir, algo string, maxAtoms, maxDecisions, maxLearned int) engine.Options {
	if o.Cache == nil && cacheDir != "" {
		o.Cache = engine.NewCache(engine.CacheOptions{Dir: cacheDir})
	}
	o.SolverAlgo, _ = solver.ParseAlgo(algo)
	if maxAtoms > 0 || maxDecisions > 0 || maxLearned > 0 {
		// Non-default bounds need private pooled instances; a shared
		// cache's warm solvers carry the default bounds.
		o.NewSolver = func() *solver.Solver {
			s := solver.New()
			s.MaxAtoms = cmp.Or(maxAtoms, s.MaxAtoms)
			s.MaxDecisions = cmp.Or(maxDecisions, s.MaxDecisions)
			s.MaxLearned = cmp.Or(maxLearned, s.MaxLearned)
			return s
		}
	}
	return o
}

// CheckExpr runs the mixed analysis on a parsed program.
func CheckExpr(e lang.Expr, cfg Config) Result {
	if err := cfg.Validate(); err != nil {
		return Result{Err: err}
	}
	opts := core.Options{
		Unsound:      cfg.Unsound,
		SolverAddrEq: cfg.SolverAddrEq,
		EffectAware:  cfg.EffectAware,
		ShardPrefix:  cfg.ShardPrefix,
	}
	if cfg.DeferConditionals {
		opts.IfMode = sym.DeferIf
	}
	if cfg.Merge != "" {
		mm, err := engine.ParseMergeMode(cfg.Merge)
		if err != nil {
			return Result{Err: err}
		}
		opts.Merge = mm
	}
	eopts := engineOptions(engine.Options{
		Workers:       cfg.Workers,
		MaxPaths:      int64(cfg.MaxPaths),
		NoMemo:        cfg.NoMemo,
		Cache:         cfg.Cache,
		Context:       cfg.Context,
		Deadline:      cfg.Deadline,
		SolverTimeout: cfg.SolverTimeout,
		FaultInjector: cfg.FaultInjector,
		Tracer:        cfg.Tracer,
		Metrics:       cfg.Metrics,
	}, cfg.CacheDir, cfg.Solver, cfg.MaxAtoms, cfg.MaxDecisions, cfg.MaxLearned)
	if cfg.Cache == nil && eopts.Cache != nil {
		defer eopts.Cache.Persist()
	}
	eng := engine.New(eopts)
	defer eng.Close()
	opts.Engine = eng
	checker := core.New(opts)
	env := types.EmptyEnv()
	// Bind in sorted order: fresh symbolic variable IDs are assigned in
	// binding order, and they appear in reports, so map iteration order
	// must not leak into the output.
	names := make([]string, 0, len(cfg.Env))
	for name := range cfg.Env {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ty := cfg.Env[name]
		te, err := lang.ParseType(ty)
		if err != nil {
			return Result{Err: fmt.Errorf("mix: bad env type %q for %s: %w", ty, name, err)}
		}
		t, err := types.FromExpr(te)
		if err != nil {
			return Result{Err: fmt.Errorf("mix: bad env type %q for %s: %w", ty, name, err)}
		}
		env = env.Extend(name, t)
	}
	var ty types.Type
	var err error
	if cfg.Mode == StartSymbolic {
		ty, err = checker.CheckSymbolic(env, e)
	} else {
		ty, err = checker.Check(env, e)
	}
	es := eng.Snapshot()
	res := Result{
		Err:             err,
		Paths:           checker.Executor().Stats.Paths,
		Merges:          checker.Executor().Stats.Merges,
		SolverQueries:   int(es.SolverQueries),
		Forks:           int(es.Forks),
		Steals:          int(es.Steals),
		MemoHits:        int(es.MemoHits),
		MemoMisses:      int(es.MemoMisses),
		SolverTime:      es.SolverTime,
		QuickDecided:    int(es.QuickDecided),
		Slices:          int(es.Slices),
		MaxSlice:        int(es.MaxSlice),
		CexHits:         int(es.CexHits),
		Timeouts:        es.Faults.Of(fault.Timeout) + es.Faults.Of(fault.Canceled),
		PanicsRecovered: es.Faults.Of(fault.WorkerPanic),
		PathsTruncated:  es.Faults.Truncations(),
	}
	// The single degradation rule: a classified fault (deadline, budget,
	// solver limit, recovered panic) is an explicit "cannot certify",
	// not a rejection — the typed side's top. Genuine type errors and
	// feasible-path findings keep their error.
	if fault.Degradable(err) {
		res.Degraded = true
		res.Fault = fault.ClassOf(err).String()
		res.FaultDetail = err.Error()
		res.Err = nil
		// Faults absorbed after exploration (a solver limit during the
		// feasibility or exhaustiveness checks of TSYMBLOCK) never pass
		// through an executor span, so the trace would otherwise show a
		// degraded verdict with no provenance; a check-level degrade
		// event closes that gap. Emitted only on degraded runs, so
		// fault-free traces stay byte-comparable.
		cfg.Tracer.Root("mix.check").Degrade(res.Fault, "verdict degraded to unknown")
	}
	if ty != nil {
		res.Type = ty.String()
	}
	for _, r := range checker.Reports {
		res.Reports = append(res.Reports, r.String())
	}
	res.BlockTypes = checker.BlockTypes
	if m := cfg.Metrics; m != nil {
		eng.PublishMetrics()
		m.Gauge("mix.paths").Set(int64(res.Paths))
		m.Gauge("mix.reports").Set(int64(len(res.Reports)))
		var deg int64
		if res.Degraded {
			deg = 1
		}
		m.Gauge("mix.degraded").Set(deg)
	}
	return res
}

// CConfig configures a MIXY analysis of a MicroC program.
type CConfig struct {
	// Entry is the entry function (default "main").
	Entry string
	// PureTypes ignores MIX annotations, giving the paper's baseline:
	// pure type qualifier inference.
	PureTypes bool
	// NoCache disables block caching (Section 4.3).
	NoCache bool
	// StrictInit treats uninitialized pointer globals as null (C zero
	// initialization); the paper's MIXY tracks only explicit NULL
	// uses.
	StrictInit bool
	// Merge selects the state-merging mode ("off", "joins",
	// "aggressive"; empty = off) for the per-block symbolic executor,
	// and MergeCap the joins-mode divergence cap (0 = default, 8). See
	// DESIGN.md section 12.
	Merge    string
	MergeCap int
	// Summaries answers eligible calls in the per-block executor from
	// compositional function summaries (internal/summary): each
	// non-MIX-annotated int-fragment function is analyzed once into
	// guarded arms, and call sites instantiate the arms by substitution
	// instead of re-inlining the body. Verdicts are identical to
	// inlining; ineligible calls fall back observably. SummaryCap
	// bounds the arms per summary (0 = default, 16).
	Summaries  bool
	SummaryCap int
	// SummaryStore, when non-nil (and Summaries is set), is a shared
	// cross-run summary cache (summary.NewStore); the daemon shares one
	// across requests. Nil with Summaries set builds a store from
	// CacheDir (or memory-only when that too is empty).
	SummaryStore *summary.Store
	// Workers bounds the engine's parallel workers: solver queries
	// always go through its memoizing pool, and the symbolic-to-typed
	// translation queries of each block evaluate in parallel across
	// that many workers (0 or 1 = sequentially).
	Workers int
	// NoMemo disables the engine's solver memo table.
	NoMemo bool
	// Cache, when non-nil, is a shared cross-run solver cache; see
	// Config.Cache.
	Cache *engine.Cache
	// CacheDir, when non-empty, persists the caches across processes:
	// the function-summary store (with Summaries) and, when Cache is
	// nil, this run's solver memo and counterexample models; see
	// Config.CacheDir.
	CacheDir string
	// Solver selects the search core ("cdcl" or "dpll"; empty = cdcl)
	// and MaxAtoms / MaxDecisions / MaxLearned override
	// the per-query solver bounds; see Config.Solver.
	Solver       string
	MaxAtoms     int
	MaxDecisions int
	MaxLearned   int
	// Deadline bounds the analysis' wall-clock time (0 = none). An
	// expired deadline stops the fixed point and pessimizes the
	// frontier (sound over-approximation) instead of hanging.
	Deadline time.Duration
	// SolverTimeout bounds each individual solver query (0 = none).
	SolverTimeout time.Duration
	// Context, when non-nil, is the parent context for the run.
	Context context.Context
	// FaultInjector arms deterministic fault injection (chaos tests
	// only; nil in production).
	FaultInjector *fault.Injector
	// Tracer, when non-nil, records structured events for the run:
	// per-block path trees plus the MIXY fixpoint timeline.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the run's metrics once the
	// analysis completes.
	Metrics *obs.Registry
}

// CResult is the outcome of a MIXY analysis.
type CResult struct {
	// Warnings are the analysis findings ("null value may reach
	// nonnull position ...", null dereferences, unsupported function
	// pointers).
	Warnings []string
	// Merges is the number of join-point state merges performed by the
	// per-block executor (nonzero only with CConfig.Merge enabled).
	Merges int
	// BlocksAnalyzed, CacheHits, FixpointIters and SolverQueries
	// describe the work done.
	BlocksAnalyzed int
	CacheHits      int
	FixpointIters  int
	SolverQueries  int
	// MemoHits/MemoMisses count engine solver-memo traffic;
	// SolverTime is time spent inside the solver.
	MemoHits   int
	MemoMisses int
	SolverTime time.Duration
	// Summary statistics (zero without CConfig.Summaries): summaries
	// computed fresh this run vs answered from the store's memory/disk
	// tiers, corrupt disk entries degraded to recompute, call sites
	// answered by instantiating a summary, and call sites that fell
	// back to inlining.
	SummaryComputed     int
	SummaryMemHits      int
	SummaryDiskHits     int
	SummaryCorrupt      int
	SummaryInstantiated int64
	SummaryFallbacks    int64
	// Solver-pipeline statistics: see Result.QuickDecided and friends.
	QuickDecided int
	Slices       int
	MaxSlice     int
	CexHits      int
	// Persistent-memory statistics: state forks (O(1) clones), cells
	// those forks shared structurally instead of copying, and cell
	// writes.
	MemClones   int64
	SharedCells int64
	MemWrites   int64
	// Degraded reports that the fixed point was truncated by a
	// classified fault and the frontier's qualifiers were pessimized
	// to null (a sound over-approximation); Fault names the class and
	// FaultDetail the diagnostic.
	Degraded    bool
	Fault       string
	FaultDetail string
	// Classified-fault counters for the run: expired deadlines and
	// cancellations, worker panics recovered, and paths truncated by
	// path/step budgets.
	Timeouts        int64
	PanicsRecovered int64
	PathsTruncated  int64
}

// Validate reports the first inconsistent option as a descriptive
// error, or nil; see Config.Validate.
func (cfg CConfig) Validate() error {
	switch {
	case cfg.Workers < 0:
		return fmt.Errorf("mix: negative Workers %d (0 means one worker)", cfg.Workers)
	case cfg.Deadline < 0:
		return fmt.Errorf("mix: negative Deadline %v (0 means none)", cfg.Deadline)
	case cfg.SolverTimeout < 0:
		return fmt.Errorf("mix: negative SolverTimeout %v (0 means none)", cfg.SolverTimeout)
	case cfg.MergeCap < 0:
		return fmt.Errorf("mix: negative MergeCap %d (0 means the joins-mode default)", cfg.MergeCap)
	case cfg.MergeCap > 0 && cfg.Merge == "":
		return fmt.Errorf("mix: MergeCap %d set without a Merge mode — the cap only applies to the merging executor (set Merge to \"joins\" or \"aggressive\")", cfg.MergeCap)
	case cfg.SummaryCap < 0:
		return fmt.Errorf("mix: negative SummaryCap %d (0 means the default, %d)", cfg.SummaryCap, summary.DefaultCap)
	case cfg.SummaryCap > 0 && !cfg.Summaries:
		return fmt.Errorf("mix: SummaryCap %d set without Summaries — the cap only applies to summary construction (set Summaries)", cfg.SummaryCap)
	case cfg.SummaryStore != nil && !cfg.Summaries:
		return fmt.Errorf("mix: SummaryStore set without Summaries — the store is only consulted when summaries are enabled")
	case cfg.MaxAtoms < 0:
		return fmt.Errorf("mix: negative MaxAtoms %d (0 means the solver default)", cfg.MaxAtoms)
	case cfg.MaxDecisions < 0:
		return fmt.Errorf("mix: negative MaxDecisions %d (0 means the solver default)", cfg.MaxDecisions)
	case cfg.MaxLearned < 0:
		return fmt.Errorf("mix: negative MaxLearned %d (0 means the solver default)", cfg.MaxLearned)
	}
	if _, err := solver.ParseAlgo(cfg.Solver); err != nil {
		return fmt.Errorf("mix: %w", err)
	}
	if cfg.Merge != "" {
		if _, err := engine.ParseMergeMode(cfg.Merge); err != nil {
			return fmt.Errorf("mix: bad Merge mode %q: %w", cfg.Merge, err)
		}
	}
	return nil
}

// ParseC parses a MicroC translation unit.
func ParseC(src string) (*microc.Program, error) { return microc.Parse(src) }

// AnalyzeC runs MIXY (or, with PureTypes, plain qualifier inference)
// on a MicroC program.
func AnalyzeC(src string, cfg CConfig) (CResult, error) {
	if err := cfg.Validate(); err != nil {
		return CResult{}, err
	}
	prog, err := microc.Parse(src)
	if err != nil {
		return CResult{}, err
	}
	eopts := engineOptions(engine.Options{
		Workers:       cfg.Workers,
		NoMemo:        cfg.NoMemo,
		Cache:         cfg.Cache,
		Context:       cfg.Context,
		Deadline:      cfg.Deadline,
		SolverTimeout: cfg.SolverTimeout,
		FaultInjector: cfg.FaultInjector,
		Tracer:        cfg.Tracer,
		Metrics:       cfg.Metrics,
	}, cfg.CacheDir, cfg.Solver, cfg.MaxAtoms, cfg.MaxDecisions, cfg.MaxLearned)
	if cfg.Cache == nil && eopts.Cache != nil {
		defer eopts.Cache.Persist()
	}
	eng := engine.New(eopts)
	defer eng.Close()
	var mergeMode engine.MergeMode
	if cfg.Merge != "" {
		mergeMode, err = engine.ParseMergeMode(cfg.Merge)
		if err != nil {
			return CResult{}, err
		}
	}
	// Summaries are precomputed before the fixpoint, bottom-up over the
	// call graph, consulting the cross-run store (memory, then disk)
	// before running any scratch symbolic execution.
	var sums *summary.ProgramSummaries
	if cfg.Summaries {
		store := cfg.SummaryStore
		if store == nil {
			store = summary.NewStore(cfg.CacheDir)
		}
		sums = store.Precompute(prog, cfg.SummaryCap)
	}
	// The memory counters are process-wide and monotone; this run's
	// contribution is the before/after delta.
	clones0, shared0, writes0 := symexec.MemoryStats()
	mopts := mixy.Options{
		Entry:             cfg.Entry,
		IgnoreAnnotations: cfg.PureTypes,
		NoCache:           cfg.NoCache,
		StrictInit:        cfg.StrictInit,
		Merge:             mergeMode,
		MergeCap:          cfg.MergeCap,
		Engine:            eng,
		Tracer:            cfg.Tracer,
	}
	if sums != nil {
		mopts.Summaries = sums
	}
	a, err := mixy.Run(prog, mopts)
	if err != nil {
		return CResult{}, err
	}
	res := CResult{
		Merges:         a.Exec.Stats.Merges,
		BlocksAnalyzed: a.Stats.BlocksAnalyzed,
		CacheHits:      a.Stats.CacheHits,
		FixpointIters:  a.Stats.FixpointIters,
		SolverQueries:  a.Stats.SolverQueries,
	}
	if d := a.Degraded(); d != nil {
		res.Degraded = true
		res.Fault = fault.ClassOf(d).String()
		res.FaultDetail = d.Error()
	}
	res.Timeouts = a.Stats.Faults.Of(fault.Timeout) + a.Stats.Faults.Of(fault.Canceled)
	res.PanicsRecovered = a.Stats.Faults.Of(fault.WorkerPanic)
	res.PathsTruncated = a.Stats.Faults.Truncations()
	clones1, shared1, writes1 := symexec.MemoryStats()
	res.MemClones, res.SharedCells, res.MemWrites = clones1-clones0, shared1-shared0, writes1-writes0
	es := eng.Snapshot()
	res.MemoHits = int(es.MemoHits)
	res.MemoMisses = int(es.MemoMisses)
	res.SolverTime = es.SolverTime
	res.QuickDecided = int(es.QuickDecided)
	res.Slices = int(es.Slices)
	res.MaxSlice = int(es.MaxSlice)
	res.CexHits = int(es.CexHits)
	if sums != nil {
		res.SummaryComputed = sums.Computed
		res.SummaryMemHits = sums.MemHits
		res.SummaryDiskHits = sums.DiskHits
		res.SummaryCorrupt = sums.Corrupt
		res.SummaryInstantiated = sums.Instantiated()
		res.SummaryFallbacks = sums.Fallbacks()
	}
	for _, w := range a.Warnings {
		res.Warnings = append(res.Warnings, w.String())
	}
	if m := cfg.Metrics; m != nil {
		eng.PublishMetrics()
		m.Gauge("mixy.blocks_analyzed").Set(int64(res.BlocksAnalyzed))
		m.Gauge("mixy.cache_hits").Set(int64(res.CacheHits))
		m.Gauge("mixy.fixpoint_iters").Set(int64(res.FixpointIters))
		m.Gauge("mixy.warnings").Set(int64(len(res.Warnings)))
		m.Gauge("symexec.mem.clones").Set(res.MemClones)
		m.Gauge("symexec.mem.shared_cells").Set(res.SharedCells)
		m.Gauge("symexec.mem.writes").Set(res.MemWrites)
		if sums != nil {
			m.Gauge("mixy.summaries.computed").Set(int64(res.SummaryComputed))
			m.Gauge("mixy.summaries.mem_hits").Set(int64(res.SummaryMemHits))
			m.Gauge("mixy.summaries.disk_hits").Set(int64(res.SummaryDiskHits))
			m.Gauge("mixy.summaries.corrupt").Set(int64(res.SummaryCorrupt))
			m.Gauge("mixy.summaries.instantiated").Set(res.SummaryInstantiated)
			m.Gauge("mixy.summaries.fallbacks").Set(res.SummaryFallbacks)
		}
		var deg int64
		if res.Degraded {
			deg = 1
		}
		m.Gauge("mixy.degraded").Set(deg)
	}
	return res, nil
}
