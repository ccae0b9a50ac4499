package solver

import "fmt"

// Algo selects the search core behind Sat, Valid, and SatAssuming.
type Algo int

const (
	// AlgoCDCL is the conflict-driven clause-learning core (cdcl.go):
	// one-sided Tseitin CNF over the NNF front end, two-watched-literal
	// unit propagation, 1-UIP conflict analysis with non-chronological
	// backjumping, deterministic VSIDS decisions, a bounded learned-
	// clause database, and incremental assumption solving that retains
	// encodings and learned clauses across queries. The zero value, so
	// every Solver defaults to it.
	AlgoCDCL Algo = iota
	// AlgoDPLL is the original chronological tree search, kept as the
	// reference core the differential suites compare CDCL against
	// (-solver=dpll).
	AlgoDPLL
)

func (a Algo) String() string {
	switch a {
	case AlgoCDCL:
		return "cdcl"
	case AlgoDPLL:
		return "dpll"
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// ParseAlgo parses a -solver flag or request value. The empty string
// selects the default (CDCL).
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "", "cdcl":
		return AlgoCDCL, nil
	case "dpll":
		return AlgoDPLL, nil
	}
	return 0, fmt.Errorf("unknown solver algorithm %q (want cdcl or dpll)", s)
}
