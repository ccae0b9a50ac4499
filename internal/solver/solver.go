package solver

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"mix/internal/fault"
)

func ratNegOne() *big.Rat { return big.NewRat(-1, 1) }

// Stats counts solver work; benchmarks read these to compare the
// fork-vs-defer tradeoff from Section 3.1 of the paper.
type Stats struct {
	SatQueries   int // top-level Sat/Valid/SatAssuming calls
	TheoryChecks int // conjunction checks handed to the arithmetic core
	Decisions    int // branch decisions (DPLL and CDCL)
	Atoms        int // decision atoms across all queries

	// CDCL-only counters.
	Conflicts        int // conflicts hit (boolean and theory)
	TheoryConflicts  int // conflicts contributed by the arithmetic core
	Propagations     int // literals propagated by the watch lists
	LearnedClauses   int // clauses learned by 1-UIP analysis
	ForgottenClauses int // learned clauses dropped by database reduction
	Restarts         int // Luby restarts
}

// Solver decides satisfiability and validity. The zero value is not
// ready; use New.
type Solver struct {
	// Algo selects the search core: CDCL (the zero value) or the legacy
	// DPLL kept as a differential oracle.
	Algo Algo
	// MaxAtoms bounds the number of decision atoms per query; queries
	// above the bound return an error rather than running away.
	MaxAtoms int
	// MaxDecisions bounds branch decisions per query.
	MaxDecisions int
	// MaxLearned bounds the CDCL learned-clause database; past the
	// bound, low-activity clauses are forgotten. 0 means the built-in
	// default.
	MaxLearned int
	// Ctx, when non-nil, is polled at query entry and about every 32
	// decisions or conflicts; expiry or cancellation aborts the query
	// with a classified fault wrapping ctx.Err(), so a deadline cuts
	// even a single runaway query short.
	Ctx context.Context
	// Injector, when non-nil, is visited at the fault.MidDPLL point on
	// the same cadence as the ctx poll (chaos tests only).
	Injector *fault.Injector
	// Gen is an opaque generation tag for pool owners: the engine
	// compares it against its cache's flush epoch and calls Reset when
	// they diverge, so pooled solvers never outlive the memoization
	// generation their learned clauses were earned under.
	Gen   uint64
	Stats Stats

	d     *cdcl     // persistent CDCL state, created on first use
	stack []Formula // assumption stack (Push/Pop)
}

// New returns a Solver with default resource bounds.
func New() *Solver {
	return &Solver{MaxAtoms: 256, MaxDecisions: 1 << 20}
}

// ErrLimit is the sentinel wrapped by every resource-exhaustion error
// (MaxAtoms, MaxDecisions). Clients that must distinguish "the query
// is too big for the configured bounds" (answer: unknown) from a
// genuine failure test errors.Is(err, ErrLimit); the engine classifies
// such queries as "unknown → keep path".
var ErrLimit = errors.New("solver: resource limit exceeded")

// ErrResource is returned when a query exceeds the solver's bounds. It
// wraps ErrLimit.
type ErrResource struct{ Msg string }

func (e ErrResource) Error() string { return "solver: " + e.Msg }

// Unwrap makes errors.Is(err, ErrLimit) hold for resource errors.
func (e ErrResource) Unwrap() error { return ErrLimit }

// FaultClass classifies resource exhaustion as a solver-limit fault
// (fault.Classifier), so the degradation rule — unknown → keep path —
// applies uniformly without string matching.
func (e ErrResource) FaultClass() fault.Class { return fault.SolverLimit }

// Sat reports whether f is satisfiable (over the rationals for the
// arithmetic part; see the package comment for the conservativity
// argument). Formulas are canonicalized by Simplify first, so
// trivially true/false guards never reach the DPLL search.
func (s *Solver) Sat(f Formula) (bool, error) {
	ok, _, err := s.sat(f, false)
	return ok, err
}

// SatModel is Sat plus a satisfying assignment when the answer is
// "sat". The model may be nil even on sat (extraction is best-effort);
// callers must verify a model against any new query with Model.Eval
// before trusting it, which is what the engine's counterexample cache
// does.
func (s *Solver) SatModel(f Formula) (bool, *Model, error) {
	return s.sat(f, true)
}

// ctxErr reports a classified fault if the solver's context is done.
func (s *Solver) ctxErr(op string) error {
	if s.Ctx == nil {
		return nil
	}
	select {
	case <-s.Ctx.Done():
		return fault.FromContext(op, "", s.Ctx.Err())
	default:
		return nil
	}
}

// poll is the cooperative interruption point of both search loops: it
// checks the context and visits the mid-search injection site (named
// MidDPLL for historical reasons; the CDCL core polls it too).
func (s *Solver) poll() error {
	if err := s.ctxErr("solver.dpll"); err != nil {
		return err
	}
	return s.Injector.At(fault.MidDPLL)
}

// sat answers one query through the dispatch in assume.go, so plain
// Sat/SatModel calls see the assumption stack and the configured
// search core exactly like SatAssuming does.
func (s *Solver) sat(f Formula, wantModel bool) (bool, *Model, error) {
	return s.satAssuming(wantModel, []Formula{f})
}

// satDPLL is the legacy chronological search, kept verbatim as the
// differential oracle for the CDCL core (-solver=dpll).
func (s *Solver) satDPLL(f Formula, wantModel bool) (bool, *Model, error) {
	f = Simplify(f)
	// Lower guarded (Ite) terms to fresh variables with defining
	// clauses; after this point the formula is in the core language.
	f = elimIte(f)
	table := newAtomTable()
	n, err := toNNF(f, true, table)
	if err != nil {
		return false, nil, err
	}
	if len(table.byKey) > s.MaxAtoms {
		return false, nil, ErrResource{fmt.Sprintf("query has %d atoms (max %d)", len(table.byKey), s.MaxAtoms)}
	}
	s.Stats.Atoms += len(table.byKey)
	c := &searchCtx{solver: s, assign: map[*atom]bool{}, budget: s.MaxDecisions, wantModel: wantModel}
	ok, err := c.search(n)
	if err != nil {
		return false, nil, err
	}
	return ok, c.model, nil
}

// Valid reports whether f holds under every valuation.
func (s *Solver) Valid(f Formula) (bool, error) {
	sat, err := s.Sat(NewNot(f))
	if err != nil {
		return false, err
	}
	return !sat, nil
}

// Tautology reports whether the disjunction of gs is valid. This is
// the exhaustive(g1, ..., gn) check of the TSYMBLOCK mix rule.
func (s *Solver) Tautology(gs ...Formula) (bool, error) {
	return s.Valid(Disj(gs...))
}

// searchCtx is the state of one DPLL search. order mirrors assign as a
// stack in decision order: iterating it instead of the map keeps model
// extraction and theory-check construction deterministic across runs.
type searchCtx struct {
	solver    *Solver
	assign    map[*atom]bool
	order     []*atom
	budget    int
	wantModel bool
	model     *Model
}

// search runs DPLL with eager theory pruning. Each decision
// *conditions* the formula — rewrites the tree with the decided atom
// replaced by a constant, sharing untouched subtrees — so the work per
// decision is proportional to the residual formula, not to a full
// re-evaluation of the original tree at every node of the search.
func (c *searchCtx) search(n node) (bool, error) {
	if cn, ok := n.(nConst); ok {
		if !cn.val {
			return false, nil
		}
		if !c.theoryOK() {
			return false, nil
		}
		if c.wantModel {
			c.capture()
		}
		return true, nil
	}
	if c.budget <= 0 {
		return false, ErrResource{"decision budget exhausted"}
	}
	c.budget--
	c.solver.Stats.Decisions++
	if c.solver.Stats.Decisions&31 == 0 {
		if err := c.solver.poll(); err != nil {
			return false, err
		}
	}
	pick := firstLit(n)
	c.order = append(c.order, pick)
	for _, v := range [2]bool{true, false} {
		c.assign[pick] = v
		if pick.kind == atomBool || c.theoryOK() {
			cond, _ := condition(n, pick, v)
			sat, err := c.search(cond)
			if err != nil {
				return false, err
			}
			if sat {
				c.order = c.order[:len(c.order)-1]
				delete(c.assign, pick)
				return true, nil
			}
		}
	}
	c.order = c.order[:len(c.order)-1]
	delete(c.assign, pick)
	return false, nil
}

// firstLit returns the leftmost literal's atom; n must not be a bare
// constant (conditioning folds constants away, so any interior node
// still contains a literal).
func firstLit(n node) *atom {
	switch n := n.(type) {
	case nLit:
		return n.a
	case nAnd:
		if a := firstLit(n.x); a != nil {
			return a
		}
		return firstLit(n.y)
	case nOr:
		if a := firstLit(n.x); a != nil {
			return a
		}
		return firstLit(n.y)
	}
	return nil
}

// condition substitutes v for atom a throughout n, folding constants
// upward; unchanged subtrees are returned as-is (shared, not copied).
func condition(n node, a *atom, v bool) (node, bool) {
	switch t := n.(type) {
	case nLit:
		if t.a == a {
			return nConst{t.pos == v}, true
		}
		return n, false
	case nAnd:
		x, cx := condition(t.x, a, v)
		y, cy := condition(t.y, a, v)
		if !cx && !cy {
			return n, false
		}
		return mkAnd(x, y), true
	case nOr:
		x, cx := condition(t.x, a, v)
		y, cy := condition(t.y, a, v)
		if !cx && !cy {
			return n, false
		}
		return mkOr(x, y), true
	}
	return n, false
}

// capture extracts a model from the current (theory-consistent, NNF-
// monotone-complete) assignment, walking the decision stack in order
// so the witness is the same on every run. Extraction is best-effort:
// on any numeric corner the model is dropped and the sat verdict
// stands.
func (c *searchCtx) capture() {
	m := &Model{Ints: map[string]*big.Rat{}, Bools: map[string]bool{}}
	var ls theoryLits
	for _, a := range c.order {
		v := c.assign[a]
		if a.kind == atomBool {
			m.Bools[a.name] = v
		} else {
			ls.add(a, v)
		}
	}
	ints, ok := ls.model()
	if !ok {
		c.model = nil
		return
	}
	m.Ints = ints
	c.model = m
}

// theoryOK checks the arithmetic consistency of the current literal
// set, built in decision order via the shared classifier in theory.go.
func (c *searchCtx) theoryOK() bool {
	c.solver.Stats.TheoryChecks++
	var ls theoryLits
	for _, a := range c.order {
		ls.add(a, c.assign[a])
	}
	return ls.consistent()
}
