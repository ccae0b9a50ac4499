package solver

import (
	"fmt"
	"math/big"
	"strings"
)

// lin is a linear combination of variables with rational coefficients
// plus a rational constant. Variable keys are canonical strings:
// "v:<name>" for integer variables and "a:<canonical app>" for purified
// uninterpreted-function applications.
type lin struct {
	coefs map[string]*big.Rat
	k     *big.Rat
}

func newLin() *lin {
	return &lin{coefs: map[string]*big.Rat{}, k: new(big.Rat)}
}

func linConst(v int64) *lin {
	l := newLin()
	l.k.SetInt64(v)
	return l
}

func linVar(key string) *lin {
	l := newLin()
	l.coefs[key] = big.NewRat(1, 1)
	return l
}

func (l *lin) clone() *lin {
	c := newLin()
	c.k.Set(l.k)
	for k, v := range l.coefs {
		c.coefs[k] = new(big.Rat).Set(v)
	}
	return c
}

// addScaled adds s*other into l in place.
func (l *lin) addScaled(other *lin, s *big.Rat) {
	l.k.Add(l.k, new(big.Rat).Mul(other.k, s))
	for k, v := range other.coefs {
		cur, ok := l.coefs[k]
		if !ok {
			cur = new(big.Rat)
			l.coefs[k] = cur
		}
		cur.Add(cur, new(big.Rat).Mul(v, s))
		if cur.Sign() == 0 {
			delete(l.coefs, k)
		}
	}
}

func (l *lin) scale(s *big.Rat) {
	l.k.Mul(l.k, s)
	for k, v := range l.coefs {
		v.Mul(v, s)
		if v.Sign() == 0 {
			delete(l.coefs, k)
		}
	}
}

func (l *lin) isConst() bool { return len(l.coefs) == 0 }

// canon returns a deterministic string for l, used both as an atom key
// and as the canonical form of App arguments.
func (l *lin) canon() string {
	var sb strings.Builder
	for _, k := range sortedKeys(l.coefs) {
		fmt.Fprintf(&sb, "%s*%s+", l.coefs[k].RatString(), k)
	}
	sb.WriteString(l.k.RatString())
	return sb.String()
}

// normalizeSign scales l so its leading (first sorted) coefficient is
// positive; valid only for equalities (both sides of =0 are symmetric).
func (l *lin) normalizeSign() {
	ks := sortedKeys(l.coefs)
	var lead *big.Rat
	if len(ks) > 0 {
		lead = l.coefs[ks[0]]
	} else {
		lead = l.k
	}
	if lead.Sign() < 0 {
		l.scale(big.NewRat(-1, 1))
	}
}

// linearize converts a Term into a linear combination, purifying App
// subterms into fresh canonical variables.
func linearize(t Term) (*lin, error) {
	switch t := t.(type) {
	case IntConst:
		return linConst(t.Val), nil
	case IntVar:
		return linVar("v:" + t.Name), nil
	case Add:
		x, err := linearize(t.X)
		if err != nil {
			return nil, err
		}
		y, err := linearize(t.Y)
		if err != nil {
			return nil, err
		}
		x.addScaled(y, big.NewRat(1, 1))
		return x, nil
	case Neg:
		x, err := linearize(t.X)
		if err != nil {
			return nil, err
		}
		x.scale(big.NewRat(-1, 1))
		return x, nil
	case Mul:
		x, err := linearize(t.X)
		if err != nil {
			return nil, err
		}
		x.scale(big.NewRat(t.K, 1))
		return x, nil
	case App:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			la, err := linearize(a)
			if err != nil {
				return nil, err
			}
			parts[i] = la.canon()
		}
		return linVar("a:" + t.Fn + "(" + strings.Join(parts, ",") + ")"), nil
	case nil:
		return nil, fmt.Errorf("solver: nil term")
	default:
		return nil, fmt.Errorf("solver: unknown term %T", t)
	}
}

// linSub computes lin(x) - lin(y).
func linSub(x, y Term) (*lin, error) {
	lx, err := linearize(x)
	if err != nil {
		return nil, err
	}
	ly, err := linearize(y)
	if err != nil {
		return nil, err
	}
	lx.addScaled(ly, big.NewRat(-1, 1))
	return lx, nil
}

// ineq is l <= 0, or l < 0 when strict.
type ineq struct {
	l      *lin
	strict bool
}

// theoryConj decides the satisfiability (over the rationals) of a
// conjunction of equalities (each lin = 0), inequalities, and
// disequalities (each lin != 0).
func theoryConj(eqs []*lin, ineqs []ineq, diseqs []*lin) bool {
	// Disequalities are checked one at a time. Over the rationals the
	// solution set P of the equalities and inequalities is convex, and a
	// convex set lies inside a finite union of hyperplanes only if it
	// lies inside one of them; so the conjunction is satisfiable iff P
	// is nonempty and, for each l != 0, P meets l < 0 or -l < 0. That is
	// at most 1+2k eliminations where splitting every disequality took
	// up to 2^k.
	if len(diseqs) > 0 {
		if !theoryConj(eqs, ineqs, nil) {
			return false
		}
		for _, d := range diseqs {
			lt := append(append([]ineq{}, ineqs...), ineq{d.clone(), true})
			if theoryConj(eqs, lt, nil) {
				continue
			}
			neg := d.clone()
			neg.scale(big.NewRat(-1, 1))
			gt := append(append([]ineq{}, ineqs...), ineq{neg, true})
			if !theoryConj(eqs, gt, nil) {
				return false
			}
		}
		return true
	}

	// Copy so elimination does not alias the caller's slices.
	eqs2 := make([]*lin, len(eqs))
	for i, e := range eqs {
		eqs2[i] = e.clone()
	}
	ins := make([]ineq, len(ineqs))
	for i, in := range ineqs {
		ins[i] = ineq{in.l.clone(), in.strict}
	}

	// Gaussian elimination of equalities.
	for len(eqs2) > 0 {
		e := eqs2[0]
		eqs2 = eqs2[1:]
		if e.isConst() {
			if e.k.Sign() != 0 {
				return false
			}
			continue
		}
		ks := sortedKeys(e.coefs)
		v := ks[0]
		c := e.coefs[v]
		// v = -(e - c*v)/c ; substitute: for every other constraint f
		// with coefficient d on v, f := f - (d/c)*e.
		for _, f := range eqs2 {
			if d, ok := f.coefs[v]; ok {
				s := new(big.Rat).Quo(d, c)
				s.Neg(s)
				f.addScaled(e, s)
			}
		}
		for i := range ins {
			if d, ok := ins[i].l.coefs[v]; ok {
				s := new(big.Rat).Quo(d, c)
				s.Neg(s)
				ins[i].l.addScaled(e, s)
			}
		}
	}

	// Fourier–Motzkin elimination of inequalities.
	for {
		// Find a variable still present.
		var v string
		found := false
		for _, in := range ins {
			if len(in.l.coefs) > 0 {
				v = sortedKeys(in.l.coefs)[0]
				found = true
				break
			}
		}
		if !found {
			break
		}
		var lowers, uppers []ineq // lowers: coef<0 (v >= bound); uppers: coef>0
		var rest []ineq
		for _, in := range ins {
			c, ok := in.l.coefs[v]
			switch {
			case !ok:
				rest = append(rest, in)
			case c.Sign() > 0:
				uppers = append(uppers, in)
			default:
				lowers = append(lowers, in)
			}
		}
		for _, lo := range lowers {
			for _, up := range uppers {
				cl := lo.l.coefs[v] // negative
				cu := up.l.coefs[v] // positive
				// Combine: cu*lo + (-cl)*up eliminates v.
				comb := lo.l.clone()
				comb.scale(cu)
				scaledUp := up.l.clone()
				negCl := new(big.Rat).Neg(cl)
				scaledUp.scale(negCl)
				comb.addScaled(scaledUp, big.NewRat(1, 1))
				delete(comb.coefs, v) // numeric residue, if any, is zero
				rest = append(rest, ineq{comb, lo.strict || up.strict})
			}
		}
		ins = rest
	}

	for _, in := range ins {
		if !in.l.isConst() {
			continue
		}
		s := in.l.k.Sign()
		if s > 0 || (s == 0 && in.strict) {
			return false
		}
	}
	return true
}
