// Package core implements MIX itself: the two mix rules of the
// paper's Figure 4 that connect an off-the-shelf type checker
// (internal/types) and an off-the-shelf symbolic executor
// (internal/sym).
//
//   - TSYMBLOCK type checks a symbolic block {s e s}: it builds a
//     symbolic environment of fresh variables typed by Γ, runs the
//     executor from ⟨true; μ⟩, demands every surviving path agree on
//     one type and leave memory consistent, and demands the path
//     conditions be exhaustive (their disjunction a tautology).
//   - SETYPBLOCK symbolically executes a typed block {t e t}: it
//     abstracts Σ to a typing environment (⊢ Σ : Γ), requires the
//     current memory be consistent, type checks the body, and returns
//     a fresh symbolic value of the derived type with a havocked
//     memory μ′.
//
// Neither underlying analysis knows about the other; each reaches the
// other only through the hook it already exposes.
package core

import (
	"errors"
	"fmt"
	"sync"

	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/lang"
	"mix/internal/solver"
	"mix/internal/sym"
	"mix/internal/types"
)

// Options configures a mixed analysis. The zero value gives the sound
// forking configuration used throughout the paper's formalism.
type Options struct {
	// Unsound replaces the exhaustive(...) tautology check with the
	// paper's "good enough check" (namely none), modeling how symbolic
	// execution is typically deployed for bug finding.
	Unsound bool
	// IfMode selects forking (SEIF-TRUE/FALSE) or deferring
	// (SEIF-DEFER) at conditionals.
	IfMode sym.IfMode
	// Merge enables veritesting-style join-point state merging in
	// ForkIf mode (DESIGN.md section 12).
	Merge engine.MergeMode
	// NoConcreteFold disables the SEPLUS-CONC style partial-evaluation
	// rules.
	NoConcreteFold bool
	// SolverAddrEq uses the solver to decide address equality in the
	// OVERWRITE-OK rule instead of syntactic equivalence.
	SolverAddrEq bool
	// MaxPaths bounds symbolic paths per block (0 = default).
	MaxPaths int
	// EffectAware enables the paper's Section 3.2 refinement: "if we
	// were to use a type and effect system rather than just a type
	// system, we could avoid introducing a completely fresh memory μ′
	// in SETYPBLOCK". A simple syntactic effect analysis skips the
	// memory havoc when the typed block provably performs no writes.
	EffectAware bool
	// Concolic enables the hybrid-concolic SEVAR variant (Section
	// 3.1): symbolic-variable lookups return concrete values recorded
	// in the path condition. Only meaningful together with Unsound,
	// since a single concolic path cannot be exhaustive.
	Concolic bool
	// Engine explores paths across its worker pool and answers every
	// solver query through its memoizing SolverPool; the engine's
	// options carry the search core and resource bounds. Nil makes New
	// build a 1-worker engine with default solver settings.
	Engine *engine.Engine
	// ShardPrefix, when non-empty, restricts every top-level symbolic
	// block to the subtree selected by forcing its first
	// len(ShardPrefix) fork decisions (false = then, true = else); the
	// pruned siblings' guards keep the exhaustiveness check sound per
	// shard, and BlockTypes records each block's agreed type so the
	// shard coordinator can detect cross-shard type disagreement the
	// restricted runs cannot see locally (DESIGN.md section 15). Only
	// meaningful in ForkIf mode.
	ShardPrefix []bool
}

// Report records one symbolic-execution finding and whether its path
// was feasible (infeasible findings are discarded, which is exactly
// how MIX eliminates false positives).
type Report struct {
	Pos      lang.Pos
	Msg      string
	Guard    string
	Feasible bool
}

func (r Report) String() string {
	verdict := "discarded (infeasible path)"
	if r.Feasible {
		verdict = "error"
	}
	return fmt.Sprintf("%s: %s: %s [under %s]", r.Pos, verdict, r.Msg, r.Guard)
}

// Checker runs a mixed analysis. Construct with New.
type Checker struct {
	opts Options
	typs *types.Checker
	exec *sym.Executor
	eng  *engine.Engine
	// mu guards Reports: parallel branches reach tSymBlock through
	// nested typed blocks concurrently.
	mu      sync.Mutex
	Reports []Report
	// BlockTypes records, under a non-empty Options.ShardPrefix, one
	// "pos type" line per successfully checked top-level symbolic block
	// in program order. Every shard sees every top-level block, so the
	// lists are positionally comparable across shards; a mismatch at
	// some index is the sharded rendering of the unsharded "paths
	// disagree on type" rejection, which no single restricted run can
	// observe when the disagreeing paths land in different shards.
	BlockTypes []string
	// suppress, while positive, drops addReport findings: the vacuous-
	// block retype re-explores subtrees whose findings belong to other
	// shards.
	suppress int
}

// New builds a mixed checker: a standard type checker and a standard
// symbolic executor, each given a hook that invokes the corresponding
// mix rule.
func New(opts Options) *Checker {
	if opts.Engine == nil {
		opts.Engine = engine.New(engine.Options{})
	}
	c := &Checker{opts: opts, eng: opts.Engine}
	c.typs = &types.Checker{SymBlock: c.tSymBlock}
	c.exec = sym.NewExecutor(opts.Engine)
	c.exec.Mode = opts.IfMode
	c.exec.MergeMode = opts.Merge
	c.exec.ConcreteFold = !opts.NoConcreteFold
	c.exec.Concolic = opts.Concolic
	if opts.MaxPaths > 0 {
		c.exec.MaxPaths = opts.MaxPaths
	}
	c.exec.TypBlock = c.seTypBlock
	c.exec.MemCheck = c.memOK
	c.exec.Prefix = opts.ShardPrefix
	return c
}

// Executor exposes the underlying symbolic executor (for statistics).
func (c *Checker) Executor() *sym.Executor { return c.exec }

// Engine exposes the engine every query and fork of the check runs
// on (for statistics).
func (c *Checker) Engine() *engine.Engine { return c.eng }

// Check analyzes e as if wrapped in a typed block at the outermost
// scope ("MIX can handle either case").
func (c *Checker) Check(env *types.Env, e lang.Expr) (types.Type, error) {
	return c.typs.Check(env, e)
}

// CheckSymbolic analyzes e as if wrapped in a symbolic block at the
// outermost scope.
func (c *Checker) CheckSymbolic(env *types.Env, e lang.Expr) (types.Type, error) {
	return c.tSymBlock(env, e)
}

// tSymBlock is the TSYMBLOCK rule. Under a shard prefix it also
// fingerprints each top-level block's agreed type into BlockTypes for
// the coordinator's cross-shard agreement check.
func (c *Checker) tSymBlock(env *types.Env, e lang.Expr) (types.Type, error) {
	fingerprint := len(c.opts.ShardPrefix) > 0 && !c.exec.RunActive()
	ty, err := c.symBlock(env, e)
	if err != nil {
		return nil, err
	}
	if fingerprint {
		c.mu.Lock()
		c.BlockTypes = append(c.BlockTypes, fmt.Sprintf("%s %s", e.Pos(), ty))
		c.mu.Unlock()
	}
	return ty, nil
}

func (c *Checker) symBlock(env *types.Env, e lang.Expr) (types.Type, error) {
	// Σ(x) = α_x : Γ(x) for all x ∈ dom(Γ).
	senv := sym.EmptyEnv()
	for _, name := range env.Names() {
		ty, _ := env.Lookup(name)
		senv = senv.Extend(name, c.exec.Fresh.Var(ty, name))
	}
	// S = ⟨true; μ⟩ with μ fresh.
	st := c.exec.InitialState()
	before := c.exec.ImprecisionCount()
	results, err := c.exec.Run(senv, st, e)
	if err != nil {
		return nil, err
	}
	degraded := c.exec.ImprecisionCount() > before

	// Pruned results are another shard's paths: their guards count
	// toward exhaustiveness, ghosts (pruned with a value) additionally
	// toward type agreement, and nothing else — the owning shard does
	// the reporting and the memory checks.
	var okResults, ghosts []sym.Result
	var prunedGuards []sym.Val
	for _, r := range results {
		if r.Pruned {
			prunedGuards = append(prunedGuards, r.State.Guard)
			if !r.Val.IsZero() {
				ghosts = append(ghosts, r)
			}
			continue
		}
		if r.Err == nil {
			okResults = append(okResults, r)
			continue
		}
		feasible, ferr := c.feasible(r.Err.State.Guard)
		if ferr != nil {
			if unknownSat(ferr) {
				// Solver resource limit: unknown → keep the path and
				// its finding (conservative, same as engine.Feasible).
				feasible = true
			} else {
				return nil, fmt.Errorf("core: feasibility check failed: %w", ferr)
			}
		}
		c.addReport(Report{
			Pos: r.Err.Pos, Msg: r.Err.Msg,
			Guard: r.Err.State.Guard.String(), Feasible: feasible,
		})
		if feasible {
			return nil, &types.Error{Pos: r.Err.Pos, Msg: r.Err.Msg}
		}
	}

	// A truncated exploration (budget, deadline, recovered panic) can
	// never certify the block: the missing paths could disagree on
	// type, corrupt memory, or break exhaustiveness. Feasible path
	// errors found above still win — they were genuinely explored — but
	// from here on the only sound answer is the degradation ladder's
	// top, surfaced as a classified fault the caller absorbs into an
	// "unknown" verdict rather than a crash or a false "well typed".
	if degraded {
		cause := c.exec.Degraded()
		if cause == nil {
			cause = fault.New(fault.PathBudget, "core.tSymBlock", "", nil)
		}
		return nil, fmt.Errorf("core: %s: symbolic block exploration truncated, cannot certify: %w",
			e.Pos(), cause)
	}
	if len(okResults) == 0 && len(ghosts) == 0 {
		if len(prunedGuards) > 0 {
			// Sharded, and every leaf inside this shard's slice erred
			// infeasibly (surviving or ghost leaves would carry a
			// type), so the slice cannot type the block. Re-run it
			// unrestricted purely to recover the type the full tree
			// agrees on: findings are suppressed — each leaf's
			// canonical shard reports them — but a feasible error
			// still rejects, exactly as it does in the owning shard.
			return c.retypeFull(env, e)
		}
		return nil, &types.Error{Pos: e.Pos(), Msg: "symbolic block has no surviving execution paths"}
	}

	// All paths must produce one type τ and a consistent memory; ghost
	// leaves count toward agreement (their canonical shard holds the
	// identical value).
	typed := append(okResults[:len(okResults):len(okResults)], ghosts...)
	ty := typed[0].Val.T
	for _, r := range typed[1:] {
		if !types.Equal(r.Val.T, ty) {
			return nil, &types.Error{Pos: e.Pos(),
				Msg: fmt.Sprintf("symbolic block paths disagree on type: %s vs %s", ty, r.Val.T)}
		}
	}
	for _, r := range okResults {
		if err := c.memOK(r.State); err != nil {
			// ⊢ m(S_i) ok failed on this path; a feasibility check
			// applies just as for type errors.
			feasible, ferr := c.feasible(r.State.Guard)
			if ferr != nil {
				if unknownSat(ferr) {
					feasible = true
				} else {
					return nil, fmt.Errorf("core: feasibility check failed: %w", ferr)
				}
			}
			c.addReport(Report{
				Pos: e.Pos(), Msg: err.Error(),
				Guard: r.State.Guard.String(), Feasible: feasible,
			})
			if feasible {
				return nil, &types.Error{Pos: e.Pos(),
					Msg: fmt.Sprintf("memory inconsistent at end of symbolic block: %v", err)}
			}
		}
	}

	// exhaustive(g(S_1), ..., g(S_n)). Pruned guards stand in for the
	// subtrees other shards explore: a shard's own leaves plus its
	// pruned roots cover the full tree, so every shard's check passes
	// exactly when the unsharded check would — a shard that lost a
	// path inside its own slice still fails, because the pruned roots
	// are disjoint from its slice.
	if !c.opts.Unsound {
		tr := sym.NewTranslator()
		guards := make([]solver.Formula, 0, len(okResults)+len(prunedGuards))
		for _, r := range okResults {
			g, err := tr.Formula(r.State.Guard)
			if err != nil {
				return nil, fmt.Errorf("core: translating guard: %w", err)
			}
			guards = append(guards, g)
		}
		for _, pg := range prunedGuards {
			g, err := tr.Formula(pg)
			if err != nil {
				return nil, fmt.Errorf("core: translating pruned guard: %w", err)
			}
			guards = append(guards, g)
		}
		// Valid(g1 ∨ ... ∨ gn) given the side constraints: check that
		// ¬(g1 ∨ ... ∨ gn) ∧ sides is unsatisfiable.
		counter, err := c.eng.Sat(solver.NewAnd(solver.NewNot(solver.Disj(guards...)), tr.Sides()))
		if err != nil {
			return nil, fmt.Errorf("core: exhaustiveness check failed: %w", err)
		}
		if counter {
			return nil, &types.Error{Pos: e.Pos(),
				Msg: "symbolic block executions are not exhaustive"}
		}
	}
	return ty, nil
}

// retypeFull re-checks a symbolic block with the shard prefix lifted,
// purely to recover its type. Top-level blocks are checked
// sequentially (the type checker is a sequential walker and the
// executor has no Run in flight here), so swapping the prefix out and
// back is unobserved by any concurrent reader.
func (c *Checker) retypeFull(env *types.Env, e lang.Expr) (types.Type, error) {
	c.mu.Lock()
	c.suppress++
	c.mu.Unlock()
	prefix := c.exec.Prefix
	c.exec.Prefix = nil
	ty, err := c.symBlock(env, e)
	c.exec.Prefix = prefix
	c.mu.Lock()
	c.suppress--
	c.mu.Unlock()
	return ty, err
}

// seTypBlock is the SETYPBLOCK rule.
func (c *Checker) seTypBlock(env *sym.Env, st sym.State, e lang.Expr) (sym.Result, error) {
	// ⊢ Σ : Γ — abstract each symbolic value to its type.
	tenv := types.EmptyEnv()
	for _, name := range env.Names() {
		v, _ := env.Lookup(name)
		tenv = tenv.Extend(name, v.T)
	}
	// ⊢ m(S) ok: the typed block relies purely on type information, so
	// the memory must be consistently typed on entry.
	if err := c.memOK(st); err != nil {
		return sym.Result{State: st, Err: &sym.PathError{
			Pos: e.Pos(), Msg: fmt.Sprintf("memory inconsistent entering typed block: %v", err), State: st,
		}}, nil
	}
	ty, err := c.typs.Check(tenv, e)
	if err != nil {
		// A classified fault from a nested symbolic block (deadline,
		// budget, panic) is not a type error of this path — it must
		// propagate so the enclosing executor degrades, instead of
		// masquerading as a path-conditioned finding.
		if fault.Degradable(err) {
			return sym.Result{}, err
		}
		// A type error inside a typed block is a path-conditioned
		// finding: if the enclosing symbolic path is infeasible, the
		// block is dead and the error is discarded (Section 2's
		// unreachable-code example).
		return sym.Result{State: st, Err: &sym.PathError{
			Pos: e.Pos(), Msg: err.Error(), State: st,
		}}, nil
	}
	// The block evaluates to a fresh α : τ; memory is havocked to a
	// fresh μ′ since the type system does not track writes — unless
	// the effect analysis proves the block write-free (Section 3.2's
	// type-and-effect refinement).
	out := st
	if !c.opts.EffectAware || mayWrite(e) {
		out.Mem = c.exec.Fresh.Memory()
	}
	return sym.Result{State: out, Val: c.exec.Fresh.Var(ty, "typblock")}, nil
}

// mayWrite is a syntactic effect analysis: it reports whether e can
// write to memory. Applications are conservatively effectful (the
// callee's body is unknown without an effect system proper), as are
// nested symbolic blocks.
func mayWrite(e lang.Expr) bool {
	switch e := e.(type) {
	case lang.Var, lang.IntLit, lang.BoolLit, lang.Fun:
		// A function literal defers its body's effects to the
		// application site, which is itself conservative.
		return false
	case lang.Plus:
		return mayWrite(e.X) || mayWrite(e.Y)
	case lang.Eq:
		return mayWrite(e.X) || mayWrite(e.Y)
	case lang.Lt:
		return mayWrite(e.X) || mayWrite(e.Y)
	case lang.Not:
		return mayWrite(e.X)
	case lang.And:
		return mayWrite(e.X) || mayWrite(e.Y)
	case lang.If:
		return mayWrite(e.Cond) || mayWrite(e.Then) || mayWrite(e.Else)
	case lang.Let:
		return mayWrite(e.Bound) || mayWrite(e.Body)
	case lang.Deref:
		return mayWrite(e.X)
	case lang.TypedBlock:
		return mayWrite(e.Body)
	}
	// Assign, Ref (allocation), App (unknown callee body), SymBlock:
	// conservatively effectful.
	return true
}

// memOK applies ⊢ m ok with the configured address-equality oracle.
func (c *Checker) memOK(st sym.State) error {
	if !c.opts.SolverAddrEq {
		return sym.MemOK(st.Mem)
	}
	guard := st.Guard
	eq := func(a, b sym.Val) bool {
		if sym.ValEqual(a, b) {
			return true
		}
		if !types.Equal(a.T, b.T) {
			return false
		}
		tr := sym.NewTranslator()
		ta, err := tr.Term(a)
		if err != nil {
			return false
		}
		tb, err := tr.Term(b)
		if err != nil {
			return false
		}
		g, err := tr.Formula(guard)
		if err != nil {
			return false
		}
		// Valid under the path condition: g ∧ sides ∧ a≠b unsat.
		sat, err := c.eng.Sat(solver.Conj(g, tr.Sides(), solver.Neq(ta, tb)))
		return err == nil && !sat
	}
	return sym.MemOKWith(st.Mem, eq)
}

// unknownSat reports whether a satisfiability error is a plain,
// deterministic solver resource limit — the "unknown" answer — as
// opposed to a transient classified fault (timeout, cancellation,
// injection) or a hard failure.
func unknownSat(err error) bool {
	return errors.Is(err, solver.ErrLimit) && fault.Of(err) == nil
}

// addReport appends a finding under the report lock (dropped during a
// retypeFull re-exploration, whose findings belong to other shards).
func (c *Checker) addReport(r Report) {
	c.mu.Lock()
	if c.suppress == 0 {
		c.Reports = append(c.Reports, r)
	}
	c.mu.Unlock()
}

// feasible checks whether a path condition is satisfiable.
func (c *Checker) feasible(g sym.Val) (bool, error) {
	tr := sym.NewTranslator()
	f, err := tr.Formula(g)
	if err != nil {
		return false, err
	}
	return c.eng.Sat(solver.NewAnd(f, tr.Sides()))
}
