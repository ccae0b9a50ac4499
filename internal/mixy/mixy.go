// Package mixy is the MIXY prototype of the paper's Section 4: it
// mixes flow-insensitive null/nonnull type qualifier inference
// (internal/qual) with a symbolic executor (internal/symexec) for
// MicroC programs, switching between the analyses at function
// boundaries annotated MIX(typed) or MIX(symbolic).
//
// The implementation follows the paper's structure:
//
//   - Section 4.1 — translation between qualifiers and symbolic
//     values in both directions, with optimistic (nonnull) defaults
//     and a global least fixed point as nullness is discovered.
//   - Section 4.2 — a memory model seeded from the may points-to
//     analysis; aliasing relationships are restored with unification
//     constraints when entering typed blocks.
//   - Section 4.3 — block results are cached keyed by their typed
//     calling context.
//   - Section 4.4 — recursion between typed and symbolic blocks is
//     cut with a block stack and resolved by the fixed point.
package mixy

import (
	"fmt"
	"sort"

	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/microc"
	"mix/internal/obs"
	"mix/internal/pointer"
	"mix/internal/qual"
	"mix/internal/solver"
	"mix/internal/symexec"
)

// Options configures a MIXY run.
type Options struct {
	// Entry is the entry function; defaults to "main".
	Entry string
	// IgnoreAnnotations treats every function as typed, giving pure
	// qualifier inference (the paper's baseline).
	IgnoreAnnotations bool
	// NoCache disables block caching (Section 4.3 ablation).
	NoCache bool
	// NoHavoc keeps symbolic memory across typed calls instead of
	// havocking it (ablating the formalism-faithful μ′ behavior).
	NoHavoc bool
	// StrictInit treats uninitialized pointer globals as null sources
	// (C zero-initialization). The paper's MIXY only tracks explicit
	// NULL uses; strict mode is what the concrete semantics validates.
	StrictInit bool
	// MaxFixpoint bounds global fixed-point iterations.
	MaxFixpoint int
	// Merge enables veritesting-style join-point state merging in the
	// per-block executor (DESIGN.md section 12): MIX(symbolic) blocks
	// with internal branching stop exploding the fixpoint. MergeCap is
	// the joins-mode divergence cap (0 = executor default).
	Merge    engine.MergeMode
	MergeCap int
	// Summaries, when non-nil, answers eligible calls in the per-block
	// executor from compositional function summaries
	// (internal/summary.Store.Precompute) instead of inlining; every
	// fallback stays observable through the Summarizer's counters.
	Summaries symexec.Summarizer
	// Engine answers every solver query through its memoizing pool and
	// evaluates the symbolic-to-typed translation queries of each block
	// in parallel across its workers. Path exploration itself stays
	// serial (the executor hooks mutate the shared qualifier
	// inference), so results are identical at every worker count. Nil
	// makes Run build a 1-worker engine with default solver settings.
	Engine *engine.Engine
	// Tracer records fixpoint-loop structure (per-iteration frontier
	// sizes, block-cache hits and misses, analyzed blocks, degradation
	// provenance) as trace events. When nil, the Engine's tracer is
	// used, so a CLI -trace captures MIXY structure with no extra
	// wiring; with neither, tracing is off.
	Tracer *obs.Tracer
}

// Warning is an analysis finding.
type Warning struct {
	Source string // "qual", "symexec", or "mixy"
	Msg    string
}

func (w Warning) String() string { return w.Source + ": " + w.Msg }

// Stats counts MIXY work; the E3 timing experiment reads these.
type Stats struct {
	FixpointIters  int
	BlocksAnalyzed int
	CacheHits      int
	CacheMisses    int
	RecursionCuts  int
	// SolverQueries is the engine pool's query count.
	SolverQueries int
	// Faults counts classified aborts absorbed anywhere in the run
	// (engine, solver pool, executor, fixed point); -stats reports it.
	Faults fault.Snapshot
}

// Analysis is one MIXY run over a program.
type Analysis struct {
	Prog *microc.Program
	PA   *pointer.Analysis
	Inf  *qual.Inference
	Exec *symexec.Executor

	opts     Options
	eng      *engine.Engine
	span     *obs.Span // fixpoint-loop trace root; nil when tracing is off
	Warnings []Warning
	Stats    Stats

	// degraded is the first run-stopping classified fault (expired
	// deadline, cancellation, injected fault, recovered panic). Once
	// set, the fixed point stops iterating and every frontier block is
	// pessimized — its translatable qualifiers are constrained to null
	// — so the truncated run stays a sound over-approximation.
	degraded error
	faults   fault.Counters

	// frontier is the set of discovered MIX(symbolic) functions.
	frontier []*microc.FuncDef
	inFront  map[*microc.FuncDef]bool
	// typedSeen tracks functions already added to the typed region.
	typedSeen map[*microc.FuncDef]bool
	// cache maps block+context to the qualifier variables the block
	// constrained to null (Section 4.3).
	cache map[string][]*qual.QVar
	// stack is the block stack for recursion detection (Section 4.4).
	stack []string
	// aliasDone marks the one-time aliasing restoration.
	aliasDone bool
}

// Run analyzes prog with MIXY.
func Run(prog *microc.Program, opts Options) (*Analysis, error) {
	if opts.Entry == "" {
		opts.Entry = "main"
	}
	if opts.MaxFixpoint == 0 {
		opts.MaxFixpoint = 16
	}
	m := &Analysis{
		Prog:      prog,
		PA:        pointer.Analyze(prog),
		opts:      opts,
		inFront:   map[*microc.FuncDef]bool{},
		typedSeen: map[*microc.FuncDef]bool{},
		cache:     map[string][]*qual.QVar{},
	}
	m.Inf = qual.New(prog)
	if opts.StrictInit {
		m.Inf.AddImplicitNullGlobals()
	}
	m.eng = opts.Engine
	if m.eng == nil {
		m.eng = engine.New(engine.Options{})
	}
	tr := opts.Tracer
	if tr == nil {
		tr = m.eng.Tracer()
	}
	// The fixpoint loop itself is sequential, so one root span serves
	// the whole run; executor roots (one per RunFunc) interleave with
	// it in deterministic program order.
	m.span = tr.Root("mixy.fixpoint")
	m.Exec = symexec.New(prog, m.PA, m.eng)
	// The solver pool is shared; forking stays serial because the
	// InitCell/TypedCall hooks mutate the inference.
	m.Exec.SerialFork = true
	m.Exec.InitCell = m.initCell
	m.Exec.TypedCall = m.typedCall
	m.Exec.MergeMode = opts.Merge
	m.Exec.MergeCap = opts.MergeCap
	m.Exec.Summaries = opts.Summaries

	entry, ok := prog.Func(opts.Entry)
	if !ok {
		return nil, fmt.Errorf("mixy: no entry function %s", opts.Entry)
	}

	if opts.IgnoreAnnotations {
		// Pure qualifier inference over everything.
		for _, f := range prog.Funcs {
			m.Inf.AddFunction(f)
		}
		m.collectWarnings()
		return m, nil
	}

	// Determine the outermost analysis from the entry's annotation:
	// MIX(symbolic) starts in symbolic mode, anything else in typed
	// mode (the paper's command-line option).
	if entry.Mix == microc.MixSymbolic {
		m.addFrontier(entry)
	} else {
		m.addTypedRegion(entry)
	}

	// Global least fixed point (Section 4.1): analyze symbolic blocks,
	// fold discovered nullness into the inference, repeat. Each
	// iteration polls the run deadline (and the fault injector's
	// fixpoint-iteration point); a fault stops iterating and pessimizes
	// the whole frontier rather than returning a half-converged —
	// optimistic, hence unsound — solution.
	for iter := 0; iter < m.opts.MaxFixpoint; iter++ {
		m.Stats.FixpointIters++
		// One iter event per fixpoint round, carrying the current
		// frontier size (Section 4.5's "which blocks fired" question).
		m.span.Emit(obs.Event{Kind: obs.KindIter, N: int64(len(m.frontier))})
		if err := m.interrupted(); err != nil {
			m.degrade(err, false)
		}
		if m.degraded != nil {
			break
		}
		changed := false
		// The frontier can grow while analyzing (typed regions found
		// inside symbolic blocks can expose new symbolic functions).
		for i := 0; i < len(m.frontier); i++ {
			if m.analyzeSymBlock(m.frontier[i]) {
				changed = true
			}
			if m.degraded != nil {
				break
			}
		}
		if m.degraded != nil || !changed {
			break
		}
	}
	if m.degraded != nil {
		m.pessimizeFrontier()
	}
	m.collectWarnings()
	return m, nil
}

// Degraded returns the first run-stopping classified fault, or nil if
// the fixed point ran to completion.
func (m *Analysis) Degraded() error { return m.degraded }

// interrupted polls the run's deadline and the fixpoint-iteration
// fault-injection point.
func (m *Analysis) interrupted() error {
	if err := m.eng.Interrupted("mixy.fixpoint"); err != nil {
		return err
	}
	return m.eng.Injector().At(fault.FixpointIter)
}

// degrade records the first run-stopping fault. counted says a lower
// layer (the executor recording into the engine's counters) already
// counted this fault, so it must not be counted twice.
func (m *Analysis) degrade(err error, counted bool) {
	if m.degraded != nil {
		return
	}
	m.degraded = err
	m.span.Degrade(fault.ClassOf(err).String(), "fixpoint stopped; frontier pessimized")
	if !counted {
		m.faults.RecordErr(err)
	}
}

// pessimizeFrontier constrains to null every qualifier a symbolic
// block could have constrained had it run to completion: returns and
// parameters of all frontier functions, pointer globals, and pointer
// struct fields. This over-approximates any fixed point the truncated
// run could have reached, keeping degraded results sound.
func (m *Analysis) pessimizeFrontier() {
	for _, f := range m.frontier {
		m.pessimizeBlock(f)
	}
}

func (m *Analysis) pessimizeBlock(f *microc.FuncDef) bool {
	reason := fmt.Sprintf("analysis of %s degraded (%s); assuming null", f.Name, fault.ClassOf(m.degraded))
	changed := false
	null := func(q *qual.QVar) {
		if q != nil && m.Inf.ConstrainNull(q, reason) {
			changed = true
		}
	}
	if rq := m.Inf.RetQ(f); rq != nil {
		null(rq.Ptr)
	}
	for _, p := range f.Params {
		if _, isPtr := p.Type.(microc.PtrType); isPtr {
			null(m.Inf.VarQ(p).Ptr)
		}
	}
	for _, g := range m.Prog.Globals {
		if _, isPtr := g.Type.(microc.PtrType); isPtr {
			null(m.Inf.VarQ(g).Ptr)
		}
	}
	for _, s := range m.Prog.Structs {
		for _, fd := range s.Fields {
			if _, isPtr := fd.Type.(microc.PtrType); isPtr {
				null(m.Inf.VarQ(fd).Ptr)
			}
		}
	}
	return changed
}

// addTypedRegion adds f and everything reachable from it up to the
// frontier of MIX(symbolic) functions to the qualifier inference, and
// returns the symbolic functions found at the frontier of this walk.
func (m *Analysis) addTypedRegion(f *microc.FuncDef) []*microc.FuncDef {
	var syms []*microc.FuncDef
	symSeen := map[*microc.FuncDef]bool{}
	visited := map[*microc.FuncDef]bool{}
	var walk func(g *microc.FuncDef)
	walk = func(g *microc.FuncDef) {
		if visited[g] {
			return
		}
		visited[g] = true
		m.typedSeen[g] = true
		m.Inf.AddFunction(g)
		for _, callee := range m.callees(g) {
			if callee.Mix == microc.MixSymbolic {
				m.addFrontier(callee)
				if !symSeen[callee] {
					symSeen[callee] = true
					syms = append(syms, callee)
				}
				continue
			}
			walk(callee)
		}
	}
	walk(f)
	return syms
}

func (m *Analysis) addFrontier(f *microc.FuncDef) {
	if !m.inFront[f] {
		m.inFront[f] = true
		m.frontier = append(m.frontier, f)
	}
}

// callees returns the possible callees of every call site in f,
// resolving function pointers through the pointer analysis.
func (m *Analysis) callees(f *microc.FuncDef) []*microc.FuncDef {
	var out []*microc.FuncDef
	seen := map[*microc.FuncDef]bool{}
	var visitStmt func(s microc.Stmt)
	var visitExpr func(e microc.Expr)
	add := func(g *microc.FuncDef) {
		if g != nil && !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	visitExpr = func(e microc.Expr) {
		switch e := e.(type) {
		case *microc.Unary:
			visitExpr(e.X)
		case *microc.Binary:
			visitExpr(e.X)
			visitExpr(e.Y)
		case *microc.Assign:
			visitExpr(e.LHS)
			visitExpr(e.RHS)
		case *microc.Field:
			visitExpr(e.X)
		case *microc.Cast:
			visitExpr(e.X)
		case *microc.Call:
			for _, t := range m.PA.CallTargets(e) {
				add(t)
			}
			if vr, ok := e.Fun.(*microc.VarRef); ok {
				if g, isFunc := vr.Ref.(*microc.FuncDef); isFunc {
					add(g)
				}
			}
			for _, a := range e.Args {
				visitExpr(a)
			}
		}
	}
	visitStmt = func(s microc.Stmt) {
		switch s := s.(type) {
		case *microc.BlockStmt:
			for _, inner := range s.Stmts {
				visitStmt(inner)
			}
		case *microc.DeclStmt:
			if s.Decl.Init != nil {
				visitExpr(s.Decl.Init)
			}
		case *microc.ExprStmt:
			visitExpr(s.X)
		case *microc.IfStmt:
			visitExpr(s.Cond)
			visitStmt(s.Then)
			if s.Else != nil {
				visitStmt(s.Else)
			}
		case *microc.WhileStmt:
			visitExpr(s.Cond)
			visitStmt(s.Body)
		case *microc.ReturnStmt:
			if s.X != nil {
				visitExpr(s.X)
			}
		}
	}
	if f.Body != nil {
		visitStmt(f.Body)
	}
	return out
}

// contextOf builds the typed calling context of a block: the solved
// qualifiers of its parameters and of all pointer-typed globals
// (Section 4.3: "the types for all variables that will be translated
// into symbolic values").
func (m *Analysis) contextOf(f *microc.FuncDef) string {
	var parts []string
	for _, p := range f.Params {
		parts = append(parts, p.Name+"="+m.qualString(m.Inf.VarQ(p)))
	}
	var globalParts []string
	for _, g := range m.Prog.Globals {
		globalParts = append(globalParts, g.Name+"="+m.qualString(m.Inf.VarQ(g)))
	}
	sort.Strings(globalParts)
	return f.Name + "(" + fmt.Sprint(parts) + ")" + fmt.Sprint(globalParts)
}

// CachedContexts returns the block-cache keys (block name + typed
// calling context, Section 4.3) as a sorted snapshot. The cache is a
// map; consumers that iterate it — diagnostics, tests, future
// eviction policies — must go through this accessor so runs are
// reproducible.
func (m *Analysis) CachedContexts() []string {
	keys := make([]string, 0, len(m.cache))
	for k := range m.cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (m *Analysis) qualString(q *qual.QType) string {
	var s string
	for q != nil && q.Ptr != nil {
		s += m.Inf.QualOf(q.Ptr).String() + "*"
		q = q.Elem
	}
	return s
}

// analyzeSymBlock analyzes one MIX(symbolic) function in its current
// typed calling context; reports whether new constraints were learned.
func (m *Analysis) analyzeSymBlock(f *microc.FuncDef) bool {
	if f.Body == nil {
		return false
	}
	ctx := m.contextOf(f)
	key := f.Name + "@" + ctx
	// Recursion (Section 4.4): if this block with this context is
	// already on the stack, return the optimistic assumption that the
	// block has no effect; the global fixed point revisits it.
	for _, s := range m.stack {
		if s == key {
			m.Stats.RecursionCuts++
			return false
		}
	}
	// Caching (Section 4.3): reuse the translated types of a previous
	// analysis with a compatible context.
	if !m.opts.NoCache {
		if cached, ok := m.cache[key]; ok {
			m.Stats.CacheHits++
			m.span.Emit(obs.Event{Kind: obs.KindCacheHit, Detail: f.Name})
			changed := false
			for _, q := range cached {
				if m.Inf.ConstrainNull(q, "cached result of "+f.Name) {
					changed = true
				}
			}
			return changed
		}
		m.Stats.CacheMisses++
		m.span.Emit(obs.Event{Kind: obs.KindCacheMiss, Detail: f.Name})
	}
	m.stack = append(m.stack, key)
	defer func() { m.stack = m.stack[:len(m.stack)-1] }()

	m.Stats.BlocksAnalyzed++
	m.span.Emit(obs.Event{Kind: obs.KindBlock, Detail: f.Name})
	// The symbolic block starts with a fresh memory (the formalism's
	// fresh μ); cells are lazily initialized from the typed context
	// through the InitCell hook.
	st := symexec.State{PC: solver.PCTrue, Mem: symexec.NewMemory()}
	outs, err := m.Exec.RunFunc(f, st, nil)
	if err != nil {
		if fault.Degradable(err) {
			// A classified abort escaped the executor: absorb it here
			// and pessimize this block instead of trusting its (empty
			// or partial) outcome set.
			m.degrade(err, false)
			return m.pessimizeBlock(f)
		}
		m.Warnings = append(m.Warnings, Warning{Source: "symexec", Msg: err.Error()})
		return false
	}
	if d := m.Exec.Degraded(); d != nil {
		// The executor stopped mid-exploration (deadline, cancellation,
		// injected fault, recovered panic) and returned a partial
		// outcome set. The executor already counted the fault in the
		// engine's counters.
		m.degrade(d, true)
		return m.pessimizeBlock(f)
	}
	// Symbolic-to-typed translation (Section 4.1): for every named
	// cell in every final memory, constrain the corresponding
	// qualifier variable to null if the value may be null under the
	// path condition. Cells are visited in sorted order — Memory is a
	// map, and the visit order decides both the constraint reasons and
	// the cached qualifier list, so it must be reproducible. The
	// queries are independent of each other, so with an engine they
	// evaluate in parallel across its workers; constraints are then
	// applied serially in the deterministic order.
	type nullCheck struct {
		q      *qual.QVar
		pc     *solver.PC
		f      solver.Formula
		reason string
	}
	var checks []nullCheck
	for _, o := range outs {
		for _, c := range sortedCells(o.St.Mem) {
			q := m.qvarForCell(c.obj, c.field)
			if q == nil {
				continue
			}
			checks = append(checks, nullCheck{
				q:      q,
				pc:     o.St.PC,
				f:      symexec.NullFormula(c.v),
				reason: fmt.Sprintf("symbolic block %s leaves %s possibly null", f.Name, c.obj.Name),
			})
		}
		// The return value translates to the function's return type.
		if rq := m.Inf.RetQ(f); rq != nil && rq.Ptr != nil && o.Ret != nil {
			checks = append(checks, nullCheck{
				q:      rq.Ptr,
				pc:     o.St.PC,
				f:      symexec.NullFormula(o.Ret),
				reason: "symbolic block " + f.Name + " may return null",
			})
		}
	}
	// mayNull starts all-true so a query that never completes — a
	// worker panic or cancellation inside Map skips remaining indices —
	// degrades to the pessimistic (sound) answer, not the optimistic
	// one. A completed query overwrites its slot either way.
	mayNull := make([]bool, len(checks))
	for i := range mayNull {
		mayNull[i] = true
	}
	query := func(i int) error {
		sat, err := m.eng.SatPC(checks[i].pc, checks[i].f)
		mayNull[i] = err != nil || sat
		return nil
	}
	if err := m.eng.Map(len(checks), query); err != nil && fault.Degradable(err) {
		m.degrade(err, false)
	}
	var constrained []*qual.QVar
	changed := false
	for i, c := range checks {
		if !mayNull[i] {
			continue
		}
		if m.Inf.ConstrainNull(c.q, c.reason) {
			changed = true
		}
		constrained = append(constrained, c.q)
	}
	// Restore aliasing relationships before handing results back to
	// the typed world (Section 4.2).
	m.restoreAliasing()
	// A degraded run must not cache: the constrained list reflects a
	// truncated exploration, and replaying it from the cache would make
	// the imprecision permanent across contexts that could re-explore.
	if !m.opts.NoCache && m.degraded == nil {
		m.cache[key] = constrained
	}
	return changed
}

// memCell is one initialized cell of a symbolic memory.
type memCell struct {
	obj   *symexec.Object
	field string
	v     symexec.Value
}

// sortedCells snapshots a memory's cells in deterministic
// (object-ID, field) order.
func sortedCells(mem *symexec.Memory) []memCell {
	var out []memCell
	mem.Cells(func(obj *symexec.Object, field string, v symexec.Value) {
		out = append(out, memCell{obj: obj, field: field, v: v})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].obj.ID != out[j].obj.ID {
			return out[i].obj.ID < out[j].obj.ID
		}
		return out[i].field < out[j].field
	})
	return out
}

// qvarForCell maps an object cell back to the qualifier variable of
// its declared position, if the cell holds a pointer.
func (m *Analysis) qvarForCell(obj *symexec.Object, field string) *qual.QVar {
	if field != "" {
		// A field cell: per-(struct, field) qualifier.
		if sn, ok := structNameOfType(obj.Type); ok {
			if sd, found := m.Prog.Struct(sn); found {
				if fd, found := sd.Field(field); found {
					if _, isPtr := fd.Type.(microc.PtrType); isPtr {
						return m.Inf.VarQ(fd).Ptr
					}
				}
			}
		}
		return nil
	}
	if obj.HasLoc {
		switch obj.Loc.Kind {
		case pointer.VarLoc:
			if _, isPtr := obj.Loc.Var.Type.(microc.PtrType); isPtr {
				return m.Inf.VarQ(obj.Loc.Var).Ptr
			}
		case pointer.FieldLoc:
			if sd, found := m.Prog.Struct(obj.Loc.Struct); found {
				if fd, found := sd.Field(obj.Loc.Field); found {
					if _, isPtr := fd.Type.(microc.PtrType); isPtr {
						return m.Inf.VarQ(fd).Ptr
					}
				}
			}
		case pointer.MallocLoc:
			if _, isPtr := obj.Type.(microc.PtrType); isPtr {
				return m.Inf.SiteQ(obj.Loc.Site, obj.Type).Ptr
			}
		}
		return nil
	}
	if obj.Site > 0 {
		if _, isPtr := obj.Type.(microc.PtrType); isPtr {
			return m.Inf.SiteQ(obj.Site, obj.Type).Ptr
		}
	}
	return nil
}

func structNameOfType(t microc.Type) (string, bool) {
	switch t := t.(type) {
	case microc.StructType:
		return t.Name, true
	case microc.PtrType:
		return structNameOfType(t.Elem)
	}
	return "", false
}

// restoreAliasing adds unification constraints so that all may-aliased
// positions share qualifiers (Section 4.2: "we add constraints to
// require that all may-aliased expressions have the same type"). The
// constraint set is monotone, so one pass suffices.
func (m *Analysis) restoreAliasing() {
	if m.aliasDone {
		return
	}
	m.aliasDone = true
	unifyClass := func(locs []pointer.Loc) {
		var first *qual.QVar
		for _, l := range locs {
			q := m.qvarForLoc(l)
			if q == nil {
				continue
			}
			if first == nil {
				first = q
			} else {
				m.Inf.Unify(first, q)
			}
		}
	}
	for _, g := range m.Prog.Globals {
		unifyClass(m.PA.PointsToVar(g))
	}
	for _, f := range m.Prog.Funcs {
		for _, p := range f.Params {
			unifyClass(m.PA.PointsToVar(p))
		}
		for _, l := range f.Locals {
			unifyClass(m.PA.PointsToVar(l))
		}
	}
	for _, s := range m.Prog.Structs {
		for _, fd := range s.Fields {
			unifyClass(m.PA.PointsToField(s.Name, fd.Name))
		}
	}
}

// qvarForLoc maps an abstract location holding a pointer to its
// content qualifier variable.
func (m *Analysis) qvarForLoc(l pointer.Loc) *qual.QVar {
	switch l.Kind {
	case pointer.VarLoc:
		if _, isPtr := l.Var.Type.(microc.PtrType); isPtr {
			return m.Inf.VarQ(l.Var).Ptr
		}
	case pointer.FieldLoc:
		if sd, found := m.Prog.Struct(l.Struct); found {
			if fd, found := sd.Field(l.Field); found {
				if _, isPtr := fd.Type.(microc.PtrType); isPtr {
					return m.Inf.VarQ(fd).Ptr
				}
			}
		}
	}
	return nil
}

// initCell is the typed-to-symbolic translation (Section 4.1),
// installed as the executor's lazy initializer: pointers are seeded
// with the qualifier inference's current solution — nonnull becomes a
// fresh location, null becomes (α ? loc : 0), unconstrained variables
// optimistically nonnull.
func (m *Analysis) initCell(x *symexec.Executor, st symexec.State, obj *symexec.Object, field string) symexec.Value {
	ty := x.CellType(obj, field)
	pt, isPtr := ty.(microc.PtrType)
	if !isPtr {
		return nil // default initialization
	}
	q := m.qvarForCell(obj, field)
	if q == nil {
		return nil
	}
	pt.Qual = m.Inf.QualOf(q)
	return x.InitPointerCell(obj, field, pt)
}

// typedCall is the symbolic-to-typed switch (Section 4.1, 4.2): a call
// to a MIX(typed) function from symbolic code adds the callee's region
// to the qualifier inference, translates the symbolic arguments into
// qualifier constraints, havocs the symbolic memory (the formalism's
// fresh μ′), and returns a fresh value typed by the callee's inferred
// return qualifier.
func (m *Analysis) typedCall(x *symexec.Executor, st symexec.State, f *microc.FuncDef, args []symexec.Value, pos microc.Pos) ([]symexec.Outcome, error) {
	m.restoreAliasing()
	nested := m.addTypedRegion(f)
	// Translate arguments to qualifier constraints.
	for i, p := range f.Params {
		if i >= len(args) || args[i] == nil {
			continue
		}
		if _, isPtr := p.Type.(microc.PtrType); !isPtr {
			continue
		}
		sat, err := m.eng.SatPC(st.PC, symexec.NullFormula(args[i]))
		if err != nil || sat {
			m.Inf.ConstrainNull(m.Inf.VarQ(p).Ptr,
				fmt.Sprintf("possibly-null argument to typed function %s at %s", f.Name, pos))
		}
	}
	// Symbolic blocks nested in this typed region are analyzed now —
	// this is where typed/symbolic block recursion arises and is cut
	// by the block stack (Section 4.4).
	for _, g := range nested {
		m.analyzeSymBlock(g)
	}
	// The typed block may write anything: havoc memory.
	out := st
	if !m.opts.NoHavoc {
		out = symexec.State{PC: st.PC, Mem: symexec.NewMemory()}
	}
	// The result is an arbitrary value of the return type, refined by
	// the inferred return qualifier.
	ret := m.typedReturnValue(x, f)
	return []symexec.Outcome{{St: out, Ret: ret}}, nil
}

func (m *Analysis) typedReturnValue(x *symexec.Executor, f *microc.FuncDef) symexec.Value {
	rt := f.Ret
	if pt, isPtr := rt.(microc.PtrType); isPtr {
		if rq := m.Inf.RetQ(f); rq != nil && rq.Ptr != nil {
			pt.Qual = m.Inf.QualOf(rq.Ptr)
		}
		rt = pt
	}
	return x.HavocValue(rt, f.Name+"_typed")
}

// collectWarnings merges qualifier warnings, symbolic-execution
// reports, and the degradation notice, and folds the run's fault
// counters into Stats.
func (m *Analysis) collectWarnings() {
	if m.degraded != nil {
		m.Warnings = append(m.Warnings, Warning{
			Source: "mixy",
			Msg: fmt.Sprintf("analysis degraded (%s): %v; frontier qualifiers pessimized to null",
				fault.ClassOf(m.degraded), m.degraded),
		})
	}
	for _, w := range m.Inf.Solve() {
		m.Warnings = append(m.Warnings, Warning{Source: "qual", Msg: w.String()})
	}
	for _, r := range m.Exec.Reports {
		switch r.Kind {
		case symexec.NullDeref, symexec.NullArg, symexec.UnsupportedFnPtr:
			m.Warnings = append(m.Warnings, Warning{Source: "symexec", Msg: r.String()})
		}
	}
	m.Stats.Faults = m.faults.Snapshot()
	snap := m.eng.Snapshot()
	m.Stats.SolverQueries += int(snap.SolverQueries)
	m.Stats.Faults.Add(snap.Faults)
}
