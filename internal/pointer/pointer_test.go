package pointer

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mix/internal/cgen"
	"mix/internal/corpus"
	"mix/internal/microc"
)

func locNames(locs []Loc) map[string]bool {
	out := map[string]bool{}
	for _, l := range locs {
		out[l.String()] = true
	}
	return out
}

func TestAddressOf(t *testing.T) {
	prog := mustParse(`
int g;
int *p;
void f(void) { p = &g; }
`)
	a := Analyze(prog)
	p, _ := prog.Global("p")
	names := locNames(a.PointsToVar(p))
	if !names["g"] {
		t.Fatalf("p should point to g, got %v", names)
	}
}

func TestCopyChains(t *testing.T) {
	prog := mustParse(`
int g;
int *p;
int *q;
int *r;
void f(void) { p = &g; q = p; r = q; }
`)
	a := Analyze(prog)
	r, _ := prog.Global("r")
	if !locNames(a.PointsToVar(r))["g"] {
		t.Fatal("r should reach g through copies")
	}
}

func TestLoadStore(t *testing.T) {
	prog := mustParse(`
int g;
int h;
int *a;
int *b;
int **pp;
void f(void) {
  a = &g;
  pp = &a;
  *pp = &h;   // store: a may also point to h
  b = *pp;    // load: b points to whatever a points to
}
`)
	an := Analyze(prog)
	a, _ := prog.Global("a")
	b, _ := prog.Global("b")
	aN := locNames(an.PointsToVar(a))
	bN := locNames(an.PointsToVar(b))
	if !aN["g"] || !aN["h"] {
		t.Fatalf("a should point to g and h, got %v", aN)
	}
	if !bN["g"] || !bN["h"] {
		t.Fatalf("b should point to g and h, got %v", bN)
	}
}

func TestMallocSites(t *testing.T) {
	prog := mustParse(`
int *p;
int *q;
void f(void) { p = malloc(sizeof(int)); q = malloc(sizeof(int)); }
`)
	a := Analyze(prog)
	p, _ := prog.Global("p")
	q, _ := prog.Global("q")
	pN := a.PointsToVar(p)
	qN := a.PointsToVar(q)
	if len(pN) != 1 || len(qN) != 1 {
		t.Fatalf("each should have one site: %v %v", pN, qN)
	}
	if pN[0].String() == qN[0].String() {
		t.Fatal("distinct malloc sites must be distinct locations")
	}
}

func TestFieldBased(t *testing.T) {
	prog := mustParse(`
struct s { int *f; };
int g;
int *out;
void store(struct s *x) { x->f = &g; }
void loadf(struct s *y) { out = y->f; }
`)
	a := Analyze(prog)
	out, _ := prog.Global("out")
	if !locNames(a.PointsToVar(out))["g"] {
		t.Fatal("field-based analysis should connect store and load through struct s.f")
	}
}

func TestCallBinding(t *testing.T) {
	prog := mustParse(`
int g;
int *id(int *x) { return x; }
int *p;
void f(void) { p = id(&g); }
`)
	a := Analyze(prog)
	p, _ := prog.Global("p")
	if !locNames(a.PointsToVar(p))["g"] {
		t.Fatal("return flow through id lost")
	}
}

func TestContextInsensitiveConflation(t *testing.T) {
	// The paper's Section 4.6 complaint, reproduced: two calls to id
	// conflate their arguments.
	prog := mustParse(`
int g;
int h;
int *id(int *x) { return x; }
int *p;
int *q;
void f(void) { p = id(&g); q = id(&h); }
`)
	a := Analyze(prog)
	p, _ := prog.Global("p")
	names := locNames(a.PointsToVar(p))
	if !names["g"] || !names["h"] {
		t.Fatalf("context-insensitive analysis must conflate: got %v", names)
	}
}

const fnptrHandler = `
fnptr cb;
int fired;
void handler(void) { fired = 1; }
void other(void) { fired = 2; }
void install(void) { cb = handler; }
void fire(void) { (*cb)(); }
`

func TestFunctionPointerTargets(t *testing.T) {
	prog := mustParse(fnptrHandler)
	a := Analyze(prog)
	fire, _ := prog.Func("fire")
	call := fire.Body.Stmts[0].(*microc.ExprStmt).X.(*microc.Call)
	targets := a.CallTargets(call)
	if len(targets) != 1 || targets[0].Name != "handler" {
		t.Fatalf("targets = %v", targets)
	}
}

const fnptrArgFlow = `
fnptr cb;
int g;
int *captured;
void take(int *x) { captured = x; }
void install(void) { cb = take; }
void fire(void) { cb(&g); }
`

func TestIndirectCallArgFlow(t *testing.T) {
	prog := mustParse(fnptrArgFlow)
	a := Analyze(prog)
	captured, _ := prog.Global("captured")
	if !locNames(a.PointsToVar(captured))["g"] {
		t.Fatal("argument flow through function pointer lost")
	}
}

func TestMayAlias(t *testing.T) {
	prog := mustParse(`
int g;
int h;
int *p;
int *q;
int *r;
void f(void) { p = &g; q = &g; r = &h; }
`)
	a := Analyze(prog)
	f, _ := prog.Func("f")
	// Build lvalue exprs *p, *q, *r via parsing a probe function is
	// overkill; instead compare variables' pointees through LValueLocs
	// on synthetic derefs is complex — use PointsToVar overlap.
	p, _ := prog.Global("p")
	q, _ := prog.Global("q")
	r, _ := prog.Global("r")
	overlap := func(a1, a2 []Loc) bool {
		for _, x := range a1 {
			for _, y := range a2 {
				if x.String() == y.String() {
					return true
				}
			}
		}
		return false
	}
	if !overlap(a.PointsToVar(p), a.PointsToVar(q)) {
		t.Fatal("p and q should may-alias (both &g)")
	}
	if overlap(a.PointsToVar(p), a.PointsToVar(r)) {
		t.Fatal("p and r should not alias")
	}
	_ = f
}

func TestLValueLocsDeref(t *testing.T) {
	prog := mustParse(`
int g;
int *p;
void f(void) { p = &g; *p = 3; }
`)
	a := Analyze(prog)
	f, _ := prog.Func("f")
	asg := f.Body.Stmts[1].(*microc.ExprStmt).X.(*microc.Assign)
	locs := a.LValueLocs(asg.LHS)
	if len(locs) != 1 || locs[0].String() != "g" {
		t.Fatalf("LValueLocs(*p) = %v", locs)
	}
}

func TestGlobalInitializerFlow(t *testing.T) {
	prog := mustParse(`
int g;
int *p = &g;
int *q = p;
`)
	a := Analyze(prog)
	q, _ := prog.Global("q")
	if !locNames(a.PointsToVar(q))["g"] {
		t.Fatal("global initializer flow lost")
	}
}

// mustParse parses a MicroC test fixture, panicking on error; the
// library itself reports parse errors through the normal return path,
// fixtures are expected to be valid.
func mustParse(src string) *microc.Program {
	prog, err := microc.Parse(src)
	if err != nil {
		panic("bad MicroC fixture: " + err.Error())
	}
	return prog
}

// fnptrFixtures are the function-pointer programs of this file, plus
// one whose targets are only found after an earlier indirect binding,
// reach void callees (whose return node is interned at binding time),
// and flow through loads and stores.
var fnptrFixtures = []string{fnptrHandler, fnptrArgFlow, sampleFnptr, `
struct ops { fnptr run; int *data; };
fnptr first;
fnptr second;
fnptr *slot;
int g;
int h;
int *out;
int *pick(int *x) { return x; }
void hop(fnptr *s) { second = pick; *s = pick; }
void c3(void) { out = &h; }
void c2(void) { first = c3; }
void c1(void) { second = c2; }
void setup(struct ops *o) { o->run = c1; slot = &first; first = hop; }
void fire(struct ops *o) {
  fnptr f = o->run;
  f();
  (*first)(slot);
  (*second)();
  second(&g);
  first(o->data);
}
`,
}

// sampleFnptr is a call through a pointer with three targets.
const sampleFnptr = `
fnptr cb;
int *p;
int g1;
int g2;
int g3;
void t3(int *x) { p = x; }
void t1(int *x) { p = x; }
void t2(int *x) { p = x; }
void install(int k) {
  if (k == 1) { cb = t2; }
  if (k == 2) { cb = t3; }
  cb = t1;
}
void fire(void) { cb(&g1); cb(&g2); cb(&g3); }
`

func TestCallTargetsDeterministic(t *testing.T) {
	prog := mustParse(sampleFnptr)
	fire, _ := prog.Func("fire")
	call := fire.Body.Stmts[0].(*microc.ExprStmt).X.(*microc.Call)
	var first []string
	for run := 0; run < 50; run++ {
		var names []string
		for _, f := range Analyze(prog).CallTargets(call) {
			names = append(names, f.Name)
		}
		if run == 0 {
			first = names
			if len(names) != 3 {
				t.Fatalf("targets = %v, want three", names)
			}
		} else if !reflect.DeepEqual(names, first) {
			t.Fatalf("run %d: targets %v, run 0: %v", run, names, first)
		}
	}
	// Location-id order: funcNode ids follow first mention, t2 < t3 < t1.
	if want := []string{"t2", "t3", "t1"}; !reflect.DeepEqual(first, want) {
		t.Fatalf("targets = %v, want location-id order %v", first, want)
	}
}

// The reference solver below is the original naive worklist: every
// pop re-scans the node's whole points-to set against its loads and
// stores and copies the whole set along every copy edge, and indirect
// calls are bound in an outer loop around whole solves. It shares
// constraint generation with the production solver and serves as the
// oracle of the differential test.

type refSolver struct {
	a     *Analysis
	pts   []map[int]bool
	succs []map[int]bool
	loads []map[int]bool
	strs  []map[int]bool
}

// referenceAnalyze generates prog's constraints and solves them with
// the reference solver.
func referenceAnalyze(prog *microc.Program) *Analysis {
	a := generate(prog)
	r := &refSolver{a: a}
	r.grow()
	for n, nd := range a.nodes {
		for _, l := range nd.pts.elems {
			r.pts[n][l] = true
		}
		for _, d := range nd.succs.elems {
			r.succs[n][d] = true
		}
		for _, d := range a.loads[n] {
			r.loads[n][d] = true
		}
		for _, s := range a.strs[n] {
			r.strs[n][s] = true
		}
	}
	r.solve()
	for r.bindIndirect() {
		r.solve()
	}
	for n := range a.nodes {
		a.nodes[n] = node{}
		for l := range r.pts[n] {
			a.nodes[n].pts.add(l)
		}
	}
	return a
}

// grow extends the reference's tables to nodes interned since.
func (r *refSolver) grow() {
	for len(r.pts) < len(r.a.nodes) {
		r.pts = append(r.pts, map[int]bool{})
		r.succs = append(r.succs, map[int]bool{})
		r.loads = append(r.loads, map[int]bool{})
		r.strs = append(r.strs, map[int]bool{})
	}
}

func (r *refSolver) copyEdge(src, dst int) {
	if src >= 0 && dst >= 0 && src != dst {
		r.succs[src][dst] = true
	}
}

// bindIndirect resolves indirect calls against current points-to sets
// in location-id order; reports whether any new binding was added.
func (r *refSolver) bindIndirect() bool {
	a := r.a
	changed := false
	for _, ic := range a.indirect {
		if ic.fun < 0 {
			continue
		}
		var ls []int
		for l := range r.pts[ic.fun] {
			ls = append(ls, l)
		}
		sort.Ints(ls)
		for _, l := range ls {
			loc := a.locs[l]
			if loc.Kind != FuncLoc {
				continue
			}
			f := loc.Func
			already := false
			for _, t := range a.callTargets[ic.call] {
				if t == f {
					already = true
				}
			}
			if already {
				continue
			}
			changed = true
			targets := append(a.callTargets[ic.call], f)
			sort.SliceStable(targets, func(i, j int) bool {
				return a.byKey[Loc{Kind: FuncLoc, Func: targets[i]}] <
					a.byKey[Loc{Kind: FuncLoc, Func: targets[j]}]
			})
			a.callTargets[ic.call] = targets
			for i, arg := range ic.args {
				if i < len(f.Params) {
					p := a.varNode(f.Params[i])
					r.grow()
					r.copyEdge(arg, p)
				}
			}
			if f.Body != nil {
				ret := a.retNode(f)
				r.grow()
				r.copyEdge(ret, ic.res)
			}
		}
	}
	return changed
}

// solve runs the naive inclusion-constraint worklist to fixpoint.
func (r *refSolver) solve() {
	work := make([]int, 0, len(r.pts))
	for n := range r.pts {
		if len(r.pts[n]) > 0 {
			work = append(work, n)
		}
	}
	inWork := map[int]bool{}
	for _, n := range work {
		inWork[n] = true
	}
	push := func(n int) {
		if !inWork[n] {
			inWork[n] = true
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[n] = false
		for l := range r.pts[n] {
			for dst := range r.loads[n] {
				if !r.succs[l][dst] {
					r.succs[l][dst] = true
					push(l)
				}
			}
			for src := range r.strs[n] {
				if !r.succs[src][l] {
					r.succs[src][l] = true
					push(src)
				}
			}
		}
		for dst := range r.succs[n] {
			grew := false
			for l := range r.pts[n] {
				if !r.pts[dst][l] {
					r.pts[dst][l] = true
					grew = true
				}
			}
			if grew {
				push(dst)
			}
		}
	}
}

// queryExprs collects the program's declarations, calls and lvalue
// expressions in source order.
func queryExprs(prog *microc.Program) (decls []*microc.VarDecl, calls []*microc.Call, lvals []microc.Expr) {
	var expr func(e microc.Expr)
	expr = func(e microc.Expr) {
		switch e := e.(type) {
		case *microc.VarRef:
			lvals = append(lvals, e)
		case *microc.Unary:
			if e.Op == microc.OpDeref {
				lvals = append(lvals, e)
			}
			expr(e.X)
		case *microc.Binary:
			expr(e.X)
			expr(e.Y)
		case *microc.Assign:
			expr(e.LHS)
			expr(e.RHS)
		case *microc.Call:
			calls = append(calls, e)
			expr(e.Fun)
			for _, arg := range e.Args {
				expr(arg)
			}
		case *microc.Field:
			lvals = append(lvals, e)
			expr(e.X)
		case *microc.Cast:
			expr(e.X)
		}
	}
	var stmt func(s microc.Stmt)
	stmt = func(s microc.Stmt) {
		switch s := s.(type) {
		case *microc.BlockStmt:
			for _, inner := range s.Stmts {
				stmt(inner)
			}
		case *microc.DeclStmt:
			decls = append(decls, s.Decl)
			if s.Decl.Init != nil {
				expr(s.Decl.Init)
			}
		case *microc.ExprStmt:
			expr(s.X)
		case *microc.IfStmt:
			expr(s.Cond)
			stmt(s.Then)
			if s.Else != nil {
				stmt(s.Else)
			}
		case *microc.WhileStmt:
			expr(s.Cond)
			stmt(s.Body)
		case *microc.ReturnStmt:
			if s.X != nil {
				expr(s.X)
			}
		}
	}
	decls = append(decls, prog.Globals...)
	for _, s := range prog.Structs {
		decls = append(decls, s.Fields...)
	}
	for _, f := range prog.Funcs {
		decls = append(decls, f.Params...)
		if f.Body != nil {
			stmt(f.Body)
		}
	}
	return decls, calls, lvals
}

// assertSameAnalysis checks that got and want hold the same node table
// and points-to sets and answer every query identically, order
// included. Return nodes interned while binding indirect calls may be
// numbered in a different order (the solvers discover bindings in a
// different order); they never point anywhere nor are pointed to.
func assertSameAnalysis(t *testing.T, name string, prog *microc.Program, got, want *Analysis) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+format, append([]any{name}, args...)...)
	}
	if len(got.nodes) != len(want.nodes) {
		fail("%d nodes, reference %d", len(got.nodes), len(want.nodes))
	}
	var gotRets, wantRets []string
	for n := range got.nodes {
		g, w := got.locs[n], want.locs[n]
		if g.Kind == retLoc && w.Kind == retLoc {
			gotRets, wantRets = append(gotRets, g.Func.Name), append(wantRets, w.Func.Name)
		} else if g != w {
			fail("node %d is %v, reference %v", n, g, w)
		}
		if gp, wp := got.sortedPts(n), want.sortedPts(n); !reflect.DeepEqual(gp, wp) {
			fail("pts(%v) = %v, reference %v", g, gp, wp)
		}
	}
	sort.Strings(gotRets)
	sort.Strings(wantRets)
	if !reflect.DeepEqual(gotRets, wantRets) {
		fail("return nodes %v, reference %v", gotRets, wantRets)
	}
	if !reflect.DeepEqual(got.callTargets, want.callTargets) {
		fail("call targets differ")
	}
	decls, calls, lvals := queryExprs(prog)
	check := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			fail("%s = %v, reference %v", what, g, w)
		}
	}
	for _, d := range decls {
		check("PointsToVar("+d.Name+")", got.PointsToVar(d), want.PointsToVar(d))
		if d.Kind == microc.FieldVar {
			check("PointsToField("+d.Name+")", got.PointsToField(d.Owner, d.Name),
				want.PointsToField(d.Owner, d.Name))
		}
	}
	for n := range want.nodes {
		l := want.locs[n]
		check(fmt.Sprintf("PointsToLoc(%v)", l), got.PointsToLoc(l), want.PointsToLoc(l))
	}
	for _, c := range calls {
		check("CallTargets("+c.String()+")", got.CallTargets(c), want.CallTargets(c))
	}
	if len(lvals) > 60 {
		lvals = lvals[:60]
	}
	for i, e1 := range lvals {
		check("LValueLocs("+e1.String()+")", got.LValueLocs(e1), want.LValueLocs(e1))
		for _, e2 := range lvals[i:] {
			what := "MayAlias(" + e1.String() + ", " + e2.String() + ")"
			check(what, got.MayAlias(e1, e2), want.MayAlias(e1, e2))
		}
	}
}

func TestDifferentialAgainstReferenceSolver(t *testing.T) {
	var cases []string
	cases = append(cases, fnptrFixtures...)
	for _, c := range corpus.Cases {
		cases = append(cases, c.Source)
	}
	cases = append(cases, corpus.VsftpdMini.Source)
	// Sets past the scanning threshold flowing around a cycle and a
	// diamond, and along a store edge added once they are indexed, so
	// indexed sets see repeated adds.
	var big strings.Builder
	big.WriteString("int *p;\nint *q;\nint *r;\nint **pp;\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&big, "int g%d;\n", i)
	}
	big.WriteString("void f(void) {\n  pp = &p;\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&big, "  p = &g%d;\n  q = p;\n  p = q;\n  r = p;\n  r = q;\n", i)
	}
	big.WriteString("  *pp = r;\n}\n")
	cases = append(cases, big.String())
	for _, nk := range [][2]int{{2, 0}, {5, 1}, {12, 2}, {40, 0}, {64, 3}} {
		cases = append(cases, corpus.SyntheticVsftpd(nk[0], nk[1]))
	}
	g := cgen.New(1, cgen.Config{Pointers: 4, Stmts: 8, SymbolicEntry: true, IntHelpers: 2})
	for i := 0; i < 200; i++ {
		cases = append(cases, g.Program())
	}
	for i, src := range cases {
		prog, err := microc.Parse(src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		assertSameAnalysis(t, fmt.Sprintf("case %d", i), prog, Analyze(prog), referenceAnalyze(prog))
	}
}

func BenchmarkAnalyzeTyped(b *testing.B) {
	for _, n := range []int{400, 800, 1600} {
		prog := mustParse(corpus.SyntheticVsftpd(n, 0))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Analyze(prog)
			}
		})
	}
}
