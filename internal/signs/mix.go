package signs

import (
	"fmt"

	"mix/internal/engine"
	"mix/internal/lang"
	"mix/internal/solver"
	"mix/internal/sym"
	"mix/internal/types"
)

// Mixer mixes the sign type system with the unmodified symbolic
// executor of internal/sym. Compare with internal/core: only the
// translations at the block boundaries differ.
type Mixer struct {
	signs *Checker
	exec  *sym.Executor
	solv  *solver.Solver
	// facts are sign constraints injected by seSignBlock on fresh
	// result variables. They are assumptions (true of the concrete
	// values the variables abstract), not branch choices, so the
	// exhaustiveness check holds relative to them: each fact mentions
	// only its own fresh variable, so conjoining all of them never
	// constrains an unrelated path.
	facts []sym.Val
	// Reports collects discarded and confirmed findings, as in core.
	Reports []string
}

// NewMixer builds a mixed sign analysis.
func NewMixer() *Mixer {
	m := &Mixer{solv: solver.New()}
	m.signs = &Checker{SymBlock: m.tSymBlock}
	m.exec = sym.NewExecutor(engine.New(engine.Options{}))
	m.exec.TypBlock = m.seSignBlock
	return m
}

// Check analyzes e with the outermost scope as a sign-typed block.
func (m *Mixer) Check(env *Env, e lang.Expr) (Type, error) {
	return m.signs.Check(env, e)
}

// CheckSymbolic analyzes e with the outermost scope as a symbolic
// block.
func (m *Mixer) CheckSymbolic(env *Env, e lang.Expr) (Type, error) {
	return m.tSymBlock(env, e)
}

// Solver exposes the underlying solver (statistics).
func (m *Mixer) Solver() *solver.Solver { return m.solv }

// baseOf strips signs to the base type of the executor's world.
func baseOf(t Type) types.Type {
	switch t := t.(type) {
	case IntType:
		return types.Int
	case BoolType:
		return types.Bool
	case RefType:
		return types.Ref(baseOf(t.Elem))
	}
	return types.Int
}

// fromBase rebuilds a sign type from a base type, assigning sign s to
// a top-level int and Top everywhere else.
func fromBase(t types.Type, s Sign) (Type, error) {
	switch t := t.(type) {
	case types.IntType:
		return Int(s), nil
	case types.BoolType:
		return Bool, nil
	case types.RefType:
		elem, err := fromBase(t.Elem, Top)
		if err != nil {
			return nil, err
		}
		return RefType{elem}, nil
	}
	return nil, fmt.Errorf("signs: base type %s outside the sign system", t)
}

// constraintVal builds the symbolic guard asserting that v has sign s.
func constraintVal(v sym.Val, s Sign) sym.Val {
	zero := sym.IntVal(0)
	switch s {
	case Pos:
		return sym.Val{U: sym.LtOp{X: zero, Y: v}, T: types.Bool}
	case Zero:
		return sym.Val{U: sym.EqOp{X: v, Y: zero}, T: types.Bool}
	case Neg:
		return sym.Val{U: sym.LtOp{X: v, Y: zero}, T: types.Bool}
	}
	return sym.TrueVal
}

// deriveSign asks the solver which sign the path condition forces on
// an integer value — the symbolic-to-signs translation.
func (m *Mixer) deriveSign(guard sym.Val, v sym.Val) (Sign, error) {
	tr := sym.NewTranslator()
	g, err := tr.Formula(guard)
	if err != nil {
		return Top, err
	}
	t, err := tr.Term(v)
	if err != nil {
		return Top, err
	}
	zero := solver.IntConst{Val: 0}
	candidates := []struct {
		s Sign
		f solver.Formula
	}{
		{Pos, solver.Gt(t, zero)},
		{Zero, solver.Eq{X: t, Y: zero}},
		{Neg, solver.Lt{X: t, Y: zero}},
	}
	for _, c := range candidates {
		counter, err := m.solv.Sat(solver.Conj(g, tr.Sides(), solver.NewNot(c.f)))
		if err != nil {
			return Top, err
		}
		if !counter {
			return c.s, nil
		}
	}
	return Top, nil
}

// tSymBlock is TSYMBLOCK for the sign system: environment signs enter
// as initial path constraints; path-result signs come back from the
// solver and are joined.
func (m *Mixer) tSymBlock(env *Env, e lang.Expr) (Type, error) {
	senv := sym.EmptyEnv()
	initGuard := sym.TrueVal
	for _, name := range env.Names() {
		st, _ := env.Lookup(name)
		v := m.exec.Fresh.Var(baseOf(st), name)
		senv = senv.Extend(name, v)
		if it, ok := st.(IntType); ok && it.S != Top {
			initGuard = sym.MkAnd(initGuard, constraintVal(v, it.S))
		}
	}
	state := sym.State{Guard: initGuard, Mem: m.exec.Fresh.Memory()}
	results, err := m.exec.Run(senv, state, e)
	if err != nil {
		return nil, err
	}

	var okResults []sym.Result
	for _, r := range results {
		if r.Err == nil {
			okResults = append(okResults, r)
			continue
		}
		feasible, ferr := m.feasible(r.Err.State.Guard)
		if ferr != nil {
			return nil, ferr
		}
		if feasible {
			m.Reports = append(m.Reports, "error: "+r.Err.Error())
			return nil, &Error{r.Err.Pos, r.Err.Msg}
		}
		m.Reports = append(m.Reports, "discarded (infeasible path): "+r.Err.Error())
	}
	if len(okResults) == 0 {
		return nil, &Error{e.Pos(), "symbolic block has no surviving execution paths"}
	}

	// Base shapes must agree; int results get per-path signs joined.
	base := okResults[0].Val.T
	for _, r := range okResults[1:] {
		if !types.Equal(r.Val.T, base) {
			return nil, &Error{e.Pos(),
				fmt.Sprintf("symbolic block paths disagree on shape: %s vs %s", base, r.Val.T)}
		}
	}
	for _, r := range okResults {
		if err := sym.MemOK(r.State.Mem); err != nil {
			feasible, ferr := m.feasible(r.State.Guard)
			if ferr != nil {
				return nil, ferr
			}
			if feasible {
				return nil, &Error{e.Pos(), fmt.Sprintf("memory inconsistent at end of symbolic block: %v", err)}
			}
		}
	}

	// Exhaustiveness relative to the initial sign constraints and the
	// facts injected for sign-block results:
	// init ∧ facts → g1 ∨ ... ∨ gn must be valid.
	tr := sym.NewTranslator()
	init, err := tr.Formula(initGuard)
	if err != nil {
		return nil, err
	}
	for _, f := range m.facts {
		ff, err := tr.Formula(f)
		if err != nil {
			return nil, err
		}
		init = solver.NewAnd(init, ff)
	}
	var guards []solver.Formula
	for _, r := range okResults {
		g, err := tr.Formula(r.State.Guard)
		if err != nil {
			return nil, err
		}
		guards = append(guards, g)
	}
	counter, err := m.solv.Sat(solver.Conj(init, solver.NewNot(solver.Disj(guards...)), tr.Sides()))
	if err != nil {
		return nil, err
	}
	if counter {
		return nil, &Error{e.Pos(), "symbolic block executions are not exhaustive"}
	}

	// Join the per-path signs of an integer result.
	sign := Zero
	first := true
	if types.Equal(base, types.Int) {
		for _, r := range okResults {
			s, err := m.deriveSign(r.State.Guard, r.Val)
			if err != nil {
				return nil, err
			}
			if first {
				sign, first = s, false
			} else {
				sign = Join(sign, s)
			}
		}
	}
	return fromBase(base, sign)
}

// seSignBlock is SETYPBLOCK for the sign system: environment values
// get signs refined from the current path condition; the result's sign
// is asserted back into the path condition.
func (m *Mixer) seSignBlock(env *sym.Env, st sym.State, e lang.Expr) (sym.Result, error) {
	genv := EmptyEnv()
	for _, name := range env.Names() {
		v, _ := env.Lookup(name)
		var ty Type
		if types.Equal(v.T, types.Int) {
			s, err := m.deriveSign(st.Guard, v)
			if err != nil {
				return sym.Result{}, err
			}
			ty = Int(s)
		} else {
			var err error
			ty, err = fromBase(v.T, Top)
			if err != nil {
				// Values outside the sign system (e.g. closures) are
				// simply not bound; using them in the block errors.
				continue
			}
		}
		genv = genv.Extend(name, ty)
	}
	if err := sym.MemOK(st.Mem); err != nil {
		return sym.Result{State: st, Err: &sym.PathError{
			Pos: e.Pos(), Msg: fmt.Sprintf("memory inconsistent entering sign block: %v", err), State: st,
		}}, nil
	}
	ty, err := m.signs.Check(genv, e)
	if err != nil {
		return sym.Result{State: st, Err: &sym.PathError{
			Pos: e.Pos(), Msg: err.Error(), State: st,
		}}, nil
	}
	out := st
	out.Mem = m.exec.Fresh.Memory()
	fresh := m.exec.Fresh.Var(baseOf(ty), "signblock")
	// The richer back-translation: the sign becomes a constraint, both
	// on this path's guard and as a recorded fact for exhaustiveness.
	if it, ok := ty.(IntType); ok && it.S != Top {
		fact := constraintVal(fresh, it.S)
		out.Guard = sym.MkAnd(out.Guard, fact)
		m.facts = append(m.facts, fact)
	}
	return sym.Result{State: out, Val: fresh}, nil
}

func (m *Mixer) feasible(g sym.Val) (bool, error) {
	tr := sym.NewTranslator()
	f, err := tr.Formula(g)
	if err != nil {
		return false, err
	}
	return m.solv.Sat(solver.NewAnd(f, tr.Sides()))
}
