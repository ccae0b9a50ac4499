package solver

// This file is the incremental front door of the solver: an assumption
// stack mirroring the engine's path conditions, the SatAssuming entry
// points that decide a query as a set of conjuncts instead of one flat
// conjunction, and the dispatch between the CDCL core and the legacy
// DPLL oracle.
//
// Keeping the conjuncts separate is what makes the CDCL core
// incremental: each conjunct encodes to one root literal, memoized for
// the solver's lifetime, and a query asserts its roots as assumption
// levels over the persistent learned-clause database. A forked path
// condition that shares its prefix with the previous query therefore
// pays only for its new conjunct.

// Push asserts f for every subsequent query until the matching Pop.
// Push/Pop frames mirror solver.PC forks: a child context pushes its
// new conjunct, queries, and pops, without re-sending the prefix.
func (s *Solver) Push(f Formula) {
	s.stack = append(s.stack, f)
}

// Pop retracts the most recent Push. Panics when the stack is empty,
// mirroring an unbalanced frame bug at the call site.
func (s *Solver) Pop() {
	s.stack = s.stack[:len(s.stack)-1]
}

// Assumptions returns the current stack depth.
func (s *Solver) Assumptions() int { return len(s.stack) }

// Reset drops the assumption stack and every retained encoding and
// learned clause. Pool owners call it when their cache generation
// turns over; bounds, context, and stats are untouched.
func (s *Solver) Reset() {
	s.d = nil
	s.stack = nil
}

// SatAssuming reports whether the conjunction of the assumption stack
// and fs is satisfiable.
func (s *Solver) SatAssuming(fs ...Formula) (bool, error) {
	ok, _, err := s.satAssuming(false, fs)
	return ok, err
}

// SatAssumingModel is SatAssuming plus a witness when satisfiable (the
// model may be nil even on sat; extraction is best-effort).
func (s *Solver) SatAssumingModel(fs ...Formula) (bool, *Model, error) {
	return s.satAssuming(true, fs)
}

// satAssuming is the single dispatch point for every query.
func (s *Solver) satAssuming(wantModel bool, fs []Formula) (bool, *Model, error) {
	if err := s.ctxErr("solver.sat"); err != nil {
		return false, nil, err
	}
	s.Stats.SatQueries++
	all := fs
	if len(s.stack) > 0 {
		all = make([]Formula, 0, len(s.stack)+len(fs))
		all = append(all, s.stack...)
		all = append(all, fs...)
	}
	switch s.Algo {
	case AlgoDPLL:
		return s.satDPLL(Conj(all...), wantModel)
	default:
		return s.satCDCL(all, wantModel)
	}
}

// satCDCL answers through the persistent CDCL core, creating it on
// first use.
func (s *Solver) satCDCL(fs []Formula, wantModel bool) (bool, *Model, error) {
	if s.d == nil {
		s.d = newCDCL(s)
	}
	return s.d.solve(fs, wantModel)
}
