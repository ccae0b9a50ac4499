package solver

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// theoryConjBySplitting is the reference decision procedure for
// disequalities: split every l != 0 into l < 0 or -l < 0 and decide
// each of the up to 2^k branches by elimination.
func theoryConjBySplitting(eqs []*lin, ineqs []ineq, diseqs []*lin) bool {
	if len(diseqs) == 0 {
		return theoryConj(eqs, ineqs, nil)
	}
	d, rest := diseqs[0], diseqs[1:]
	lt := append(append([]ineq{}, ineqs...), ineq{d.clone(), true})
	if theoryConjBySplitting(eqs, lt, rest) {
		return true
	}
	neg := d.clone()
	neg.scale(big.NewRat(-1, 1))
	gt := append(append([]ineq{}, ineqs...), ineq{neg, true})
	return theoryConjBySplitting(eqs, gt, rest)
}

func randLin(r *rand.Rand, vars int) *lin {
	l := linConst(int64(r.Intn(5) - 2))
	for v := 0; v < vars; v++ {
		if c := r.Intn(5) - 2; c != 0 {
			l.coefs[fmt.Sprintf("v:x%d", v)] = big.NewRat(int64(c), 1)
		}
	}
	return l
}

// TestTheoryConjMatchesCaseSplitting: on seeded random systems of
// equalities, inequalities and disequalities over three variables, the
// one-disequality-at-a-time check agrees with splitting every
// disequality.
func TestTheoryConjMatchesCaseSplitting(t *testing.T) {
	r := rand.New(rand.NewSource(2010))
	sat := 0
	for i := 0; i < 3000; i++ {
		var eqs, diseqs []*lin
		var ineqs []ineq
		for n := r.Intn(2); n > 0; n-- {
			eqs = append(eqs, randLin(r, 3))
		}
		for n := r.Intn(5); n > 0; n-- {
			ineqs = append(ineqs, ineq{randLin(r, 3), r.Intn(2) == 0})
		}
		for n := r.Intn(5); n > 0; n-- {
			diseqs = append(diseqs, randLin(r, 3))
		}
		got, want := theoryConj(eqs, ineqs, diseqs), theoryConjBySplitting(eqs, ineqs, diseqs)
		if got != want {
			t.Fatalf("case %d: theoryConj = %v, case splitting = %v\neqs %v\nineqs %v\ndiseqs %v",
				i, got, want, eqs, ineqs, diseqs)
		}
		if got {
			sat++
		}
	}
	if sat == 0 || sat == 3000 {
		t.Fatalf("degenerate corpus: %d of 3000 satisfiable", sat)
	}
}

// TestTheoryConjManyDisequalities: x_i >= 0 and x_i != 0 for 24
// variables puts every satisfying branch of a full case split last,
// after 2^24 - 1 infeasible ones; the check must stay linear in the
// number of disequalities.
func TestTheoryConjManyDisequalities(t *testing.T) {
	const k = 24
	var ineqs []ineq
	var diseqs []*lin
	for i := 0; i < k; i++ {
		x := linVar(fmt.Sprintf("v:x%d", i))
		diseqs = append(diseqs, x.clone())
		x.scale(big.NewRat(-1, 1))
		ineqs = append(ineqs, ineq{x, false})
	}
	if !theoryConj(nil, ineqs, diseqs) {
		t.Fatal("x_i > 0 for all i is a solution")
	}
	pin := linVar(fmt.Sprintf("v:x%d", k-1))
	if theoryConj([]*lin{pin}, ineqs, diseqs) {
		t.Fatalf("x%d = 0 contradicts x%d != 0", k-1, k-1)
	}
}
