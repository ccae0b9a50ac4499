// Package pointer implements an Andersen-style, inclusion-based,
// context-insensitive, field-based may points-to analysis for MicroC.
// It stands in for CIL's built-in pointer analysis in the paper's
// MIXY prototype: MIXY uses it to restore aliasing relationships when
// switching from symbolic to typed blocks, to lazily initialize
// symbolic memory, and to resolve calls through function pointers
// (Section 4.2).
//
// Being context-insensitive and field-based, it conflates call sites
// and struct instances exactly like the analysis the paper complains
// about in Section 4.6 — reproducing those limitations is part of the
// reproduction.
package pointer

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"mix/internal/microc"
)

// LocKind classifies abstract locations.
type LocKind int

const (
	// VarLoc is a named variable (global, local, or parameter).
	VarLoc LocKind = iota
	// FieldLoc is a struct field, conflated per (struct, field).
	FieldLoc
	// MallocLoc is a heap allocation site.
	MallocLoc
	// FuncLoc is a function (for function pointers).
	FuncLoc
	// retLoc is the return-value pseudo-variable of a function.
	retLoc
	// tempLoc is an analysis-internal temporary.
	tempLoc
)

// Loc is an abstract memory location.
type Loc struct {
	Kind   LocKind
	Var    *microc.VarDecl // VarLoc
	Struct string          // FieldLoc
	Field  string          // FieldLoc
	Site   int             // MallocLoc
	Func   *microc.FuncDef // FuncLoc, retLoc
	id     int
}

func (l Loc) String() string {
	switch l.Kind {
	case VarLoc:
		if l.Var.Owner != "" {
			return l.Var.Owner + "::" + l.Var.Name
		}
		return l.Var.Name
	case FieldLoc:
		return "struct " + l.Struct + "." + l.Field
	case MallocLoc:
		return fmt.Sprintf("malloc#%d", l.Site)
	case FuncLoc:
		return "&" + l.Func.Name
	case retLoc:
		return l.Func.Name + "::<ret>"
	}
	return fmt.Sprintf("tmp%d", l.id)
}

// Analysis holds solved points-to results.
type Analysis struct {
	// mu guards the query API: node interning is lazy, so lookups for
	// never-generated entities mutate the tables, and parallel symbolic
	// paths query concurrently.
	mu    sync.Mutex
	locs  []Loc
	nodes []node
	byKey map[Loc]int // interned nodes, keyed with id 0
	// Complex constraints, kept sparse: few nodes have any.
	loads map[int][]int // dst ⊇ *n
	strs  map[int][]int // *n ⊇ src
	calls map[int][]int // indirect calls through n, indices into indirect
	work  []int         // solver worklist (LIFO)

	// indirect call sites discovered during constraint generation.
	indirect []indirectCall
	// resolved direct + indirect call targets per call node.
	callTargets map[*microc.Call][]*microc.FuncDef
	// exprNode memoizes the node of resolved expressions.
	exprNode map[microc.Expr]int
}

// node is the solver state of one constraint variable.
type node struct {
	pts    idSet // pts.elems[done:] is the delta
	done   int
	queued bool  // on the worklist
	succs  idSet // copy edges
}

// idSet is a set of node ids in insertion order. Small sets are
// searched by scanning; nothing is allocated before the first add.
type idSet struct {
	elems []int
	index map[int]bool // membership, once elems is too long to scan
}

func (s *idSet) add(x int) bool {
	if s.index[x] || s.index == nil && slices.Contains(s.elems, x) {
		return false
	}
	s.elems = append(s.elems, x)
	if s.index != nil {
		s.index[x] = true
	} else if len(s.elems) > 16 {
		s.index = make(map[int]bool, 2*len(s.elems))
		for _, y := range s.elems {
			s.index[y] = true
		}
	}
	return true
}

type indirectCall struct {
	call *microc.Call
	fun  int
	args []int
	res  int
}

// Analyze runs the analysis to fixpoint over the whole program.
func Analyze(prog *microc.Program) *Analysis {
	a := generate(prog)
	a.solve()
	for _, ic := range a.indirect {
		var targets []*microc.FuncDef
		for _, l := range a.sortedPts(ic.fun) {
			if a.locs[l].Kind == FuncLoc {
				targets = append(targets, a.locs[l].Func)
			}
		}
		if targets != nil {
			a.callTargets[ic.call] = targets
		}
	}
	return a
}

// generate builds prog's constraint graph, ready to solve.
func generate(prog *microc.Program) *Analysis {
	a := &Analysis{
		byKey:       map[Loc]int{},
		loads:       map[int][]int{},
		strs:        map[int][]int{},
		calls:       map[int][]int{},
		callTargets: map[*microc.Call][]*microc.FuncDef{},
		exprNode:    map[microc.Expr]int{},
	}
	for _, g := range prog.Globals {
		if g.Init != nil {
			a.copyEdge(a.rvalue(g.Init), a.varNode(g))
		} else {
			a.varNode(g)
		}
	}
	for _, f := range prog.Funcs {
		for _, p := range f.Params {
			a.varNode(p)
		}
		if f.Body != nil {
			a.stmt(f, f.Body)
		}
	}
	return a
}

// node interning ------------------------------------------------------

func (a *Analysis) newNode(l Loc) int {
	l.id = len(a.locs)
	a.locs = append(a.locs, l)
	a.nodes = append(a.nodes, node{})
	return l.id
}

func (a *Analysis) intern(l Loc) int {
	id, ok := a.byKey[l]
	if !ok {
		id = a.newNode(l)
		a.byKey[l] = id
	}
	return id
}

func (a *Analysis) varNode(d *microc.VarDecl) int  { return a.intern(Loc{Kind: VarLoc, Var: d}) }
func (a *Analysis) mallocNode(site int) int        { return a.intern(Loc{Kind: MallocLoc, Site: site}) }
func (a *Analysis) funcNode(f *microc.FuncDef) int { return a.intern(Loc{Kind: FuncLoc, Func: f}) }
func (a *Analysis) retNode(f *microc.FuncDef) int  { return a.intern(Loc{Kind: retLoc, Func: f}) }
func (a *Analysis) fieldNode(structName, field string) int {
	return a.intern(Loc{Kind: FieldLoc, Struct: structName, Field: field})
}
func (a *Analysis) tempNode() int { return a.newNode(Loc{Kind: tempLoc}) }

// constraint primitives ------------------------------------------------

func (a *Analysis) addrOf(dst, loc int) { a.addPts(dst, []int{loc}) }

// copyEdge adds pts(dst) ⊇ pts(src). The source's delta will travel the
// new edge when the source is next popped, so only the part of its set
// its other constraints have already seen is sent now.
func (a *Analysis) copyEdge(src, dst int) {
	if src >= 0 && dst >= 0 && src != dst && a.nodes[src].succs.add(dst) {
		a.addPts(dst, a.nodes[src].pts.elems[:a.nodes[src].done])
	}
}
func (a *Analysis) load(src, dst int) { // dst ⊇ *src
	if src >= 0 && dst >= 0 {
		a.loads[src] = append(a.loads[src], dst)
	}
}
func (a *Analysis) store(dst, src int) { // *dst ⊇ src
	if src >= 0 && dst >= 0 {
		a.strs[dst] = append(a.strs[dst], src)
	}
}

// addPts adds locs to pts(dst), queueing dst when its delta grows.
func (a *Analysis) addPts(dst int, locs []int) {
	d := &a.nodes[dst]
	for _, l := range locs {
		d.pts.add(l)
	}
	if len(d.pts.elems) > d.done && !d.queued {
		d.queued = true
		a.work = append(a.work, dst)
	}
}

// constraint generation ------------------------------------------------

func (a *Analysis) stmt(fn *microc.FuncDef, s microc.Stmt) {
	switch s := s.(type) {
	case *microc.BlockStmt:
		for _, inner := range s.Stmts {
			a.stmt(fn, inner)
		}
	case *microc.DeclStmt:
		n := a.varNode(s.Decl)
		if s.Decl.Init != nil {
			a.copyEdge(a.rvalue(s.Decl.Init), n)
		}
	case *microc.ExprStmt:
		a.rvalue(s.X)
	case *microc.IfStmt:
		a.rvalue(s.Cond)
		a.stmt(fn, s.Then)
		if s.Else != nil {
			a.stmt(fn, s.Else)
		}
	case *microc.WhileStmt:
		a.rvalue(s.Cond)
		a.stmt(fn, s.Body)
	case *microc.ReturnStmt:
		if s.X != nil {
			a.copyEdge(a.rvalue(s.X), a.retNode(fn))
		}
	}
}

// rvalue generates constraints for e and returns the node holding its
// value, or -1 for non-pointer values.
func (a *Analysis) rvalue(e microc.Expr) int {
	switch e := e.(type) {
	case *microc.IntLit, *microc.NullLit:
		return -1
	case *microc.VarRef:
		switch ref := e.Ref.(type) {
		case *microc.VarDecl:
			return a.varNode(ref)
		case *microc.FuncDef:
			t := a.tempNode()
			a.addrOf(t, a.funcNode(ref))
			return t
		}
		return -1
	case *microc.Unary:
		switch e.Op {
		case microc.OpDeref:
			src := a.rvalue(e.X)
			if src < 0 {
				return -1
			}
			t := a.tempNode()
			a.load(src, t)
			a.exprNode[e] = t
			return t
		case microc.OpAddr:
			// &*p is p.
			if u, ok := e.X.(*microc.Unary); ok && u.Op == microc.OpDeref {
				return a.rvalue(u.X)
			}
			t := a.tempNode()
			for _, l := range a.lvalueNodes(e.X) {
				a.addrOf(t, l)
			}
			return t
		default:
			a.rvalue(e.X)
			return -1
		}
	case *microc.Binary:
		a.rvalue(e.X)
		a.rvalue(e.Y)
		return -1
	case *microc.Assign:
		rhs := a.rvalue(e.RHS)
		a.assignTo(e.LHS, rhs)
		return rhs
	case *microc.Field:
		a.rvalue(e.X)
		if sn, fld, ok := fieldOf(e); ok {
			t := a.tempNode()
			a.copyEdge(a.fieldNode(sn, fld), t)
			return t
		}
		return -1
	case *microc.Malloc:
		t := a.tempNode()
		a.addrOf(t, a.mallocNode(e.Site))
		return t
	case *microc.Cast:
		return a.rvalue(e.X)
	case *microc.Call:
		return a.call(e)
	}
	return -1
}

// assignTo generates constraints for lhs = (node rhs).
func (a *Analysis) assignTo(lhs microc.Expr, rhs int) {
	switch lhs := lhs.(type) {
	case *microc.VarRef:
		if d, ok := lhs.Ref.(*microc.VarDecl); ok {
			a.copyEdge(rhs, a.varNode(d))
		}
	case *microc.Unary:
		if lhs.Op == microc.OpDeref {
			dst := a.rvalue(lhs.X)
			a.store(dst, rhs)
		}
	case *microc.Field:
		a.rvalue(lhs.X)
		if sn, fld, ok := fieldOf(lhs); ok {
			a.copyEdge(rhs, a.fieldNode(sn, fld))
		}
	case *microc.Cast:
		a.assignTo(lhs.X, rhs)
	}
}

// lvalueNodes returns the constraint nodes denoting the locations of a
// non-deref lvalue (for address-of).
func (a *Analysis) lvalueNodes(e microc.Expr) []int {
	switch e := e.(type) {
	case *microc.VarRef:
		if d, ok := e.Ref.(*microc.VarDecl); ok {
			return []int{a.varNode(d)}
		}
	case *microc.Field:
		a.rvalue(e.X)
		if sn, fld, ok := fieldOf(e); ok {
			return []int{a.fieldNode(sn, fld)}
		}
	case *microc.Cast:
		return a.lvalueNodes(e.X)
	}
	return nil
}

// fieldOf extracts the struct name and field of a Field expression.
func fieldOf(e *microc.Field) (string, string, bool) {
	xt := e.X.StaticType()
	if e.Arrow {
		if pt, ok := xt.(microc.PtrType); ok {
			if st, ok := pt.Elem.(microc.StructType); ok {
				return st.Name, e.Name, true
			}
		}
		return "", "", false
	}
	if st, ok := xt.(microc.StructType); ok {
		return st.Name, e.Name, true
	}
	return "", "", false
}

// call generates constraints for a call and returns its result node.
func (a *Analysis) call(e *microc.Call) int {
	// Direct call?
	if vr, ok := e.Fun.(*microc.VarRef); ok {
		if f, isFunc := vr.Ref.(*microc.FuncDef); isFunc {
			a.callTargets[e] = []*microc.FuncDef{f}
			return a.bindCall(e, f)
		}
	}
	// Indirect: evaluate the function expression (unwrapping (*f)).
	funExpr := e.Fun
	if u, ok := funExpr.(*microc.Unary); ok && u.Op == microc.OpDeref {
		funExpr = u.X
	}
	fun := a.rvalue(funExpr)
	args := make([]int, len(e.Args))
	for i, arg := range e.Args {
		args[i] = a.rvalue(arg)
	}
	res := a.tempNode()
	if fun >= 0 {
		a.calls[fun] = append(a.calls[fun], len(a.indirect))
	}
	a.indirect = append(a.indirect, indirectCall{call: e, fun: fun, args: args, res: res})
	a.exprNode[e] = res
	return res
}

// bindCall wires arguments and return value for a resolved callee.
func (a *Analysis) bindCall(e *microc.Call, f *microc.FuncDef) int {
	for i, arg := range e.Args {
		n := a.rvalue(arg)
		if i < len(f.Params) {
			a.copyEdge(n, a.varNode(f.Params[i]))
		}
	}
	t := a.tempNode()
	if f.Body != nil {
		a.copyEdge(a.retNode(f), t)
	}
	a.exprNode[e] = t
	return t
}

// bindIndirect wires an indirect call to a callee its function pointer
// was found to reach.
func (a *Analysis) bindIndirect(ic indirectCall, f *microc.FuncDef) {
	for i, arg := range ic.args {
		if i < len(f.Params) {
			a.copyEdge(arg, a.varNode(f.Params[i]))
		}
	}
	if f.Body != nil {
		a.copyEdge(a.retNode(f), ic.res)
	}
}

// solve runs the inclusion-constraint worklist to fixpoint by
// difference propagation: popping a node pushes only its delta — the
// locations its load, store, call and copy constraints have not yet
// seen — through those constraints.
func (a *Analysis) solve() {
	for len(a.work) > 0 {
		n := a.work[len(a.work)-1]
		a.work = a.work[:len(a.work)-1]
		nd := &a.nodes[n]
		nd.queued = false
		delta := nd.pts.elems[nd.done:]
		nd.done = len(nd.pts.elems)
		for _, l := range delta {
			for _, dst := range a.loads[n] {
				a.copyEdge(l, dst)
			}
			for _, src := range a.strs[n] {
				a.copyEdge(src, l)
			}
			if a.locs[l].Kind == FuncLoc {
				for _, ic := range a.calls[n] {
					a.bindIndirect(a.indirect[ic], a.locs[l].Func)
				}
			}
		}
		// Binding may intern nodes and so move a.nodes: not nd here.
		for _, dst := range a.nodes[n].succs.elems {
			a.addPts(dst, delta)
		}
	}
}

// queries ---------------------------------------------------------------

// pointable reports whether a location can be a points-to target.
func pointable(l Loc) bool {
	switch l.Kind {
	case VarLoc, FieldLoc, MallocLoc, FuncLoc:
		return true
	}
	return false
}

// sortedPts returns pts(n) in location-id order.
func (a *Analysis) sortedPts(n int) []int {
	if n < 0 {
		return nil
	}
	out := append([]int(nil), a.nodes[n].pts.elems...)
	sort.Ints(out)
	return out
}

func (a *Analysis) ptsOf(n int) []Loc {
	var out []Loc
	for _, l := range a.sortedPts(n) {
		if pointable(a.locs[l]) {
			out = append(out, a.locs[l])
		}
	}
	return out
}

// PointsToVar returns the abstract locations a declared variable may
// point to.
func (a *Analysis) PointsToVar(d *microc.VarDecl) []Loc {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d.Kind == microc.FieldVar {
		return a.ptsOf(a.fieldNode(d.Owner, d.Name))
	}
	return a.ptsOf(a.varNode(d))
}

// PointsToField returns the abstract locations a struct field may
// point to.
func (a *Analysis) PointsToField(structName, field string) []Loc {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ptsOf(a.fieldNode(structName, field))
}

// PointsToLoc returns the points-to set of an abstract location
// (chasing one level of indirection).
func (a *Analysis) PointsToLoc(l Loc) []Loc {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ptsOf(l.id)
}

// CallTargets returns the possible callees of a call expression.
func (a *Analysis) CallTargets(e *microc.Call) []*microc.FuncDef {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.callTargets[e]
}

// LValueLocs returns the abstract locations an lvalue expression may
// denote.
func (a *Analysis) LValueLocs(e microc.Expr) []Loc {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lvalueLocs(e)
}

func (a *Analysis) lvalueLocs(e microc.Expr) []Loc {
	switch e := e.(type) {
	case *microc.VarRef:
		if d, ok := e.Ref.(*microc.VarDecl); ok {
			n := a.varNode(d)
			return []Loc{a.locs[n]}
		}
	case *microc.Unary:
		if e.Op == microc.OpDeref {
			if n, ok := a.exprOrVar(e.X); ok {
				return a.ptsOf(n)
			}
		}
	case *microc.Field:
		if sn, fld, ok := fieldOf(e); ok {
			n := a.fieldNode(sn, fld)
			return []Loc{a.locs[n]}
		}
	case *microc.Cast:
		return a.lvalueLocs(e.X)
	}
	return nil
}

// exprOrVar finds the constraint node of a (previously generated)
// expression.
func (a *Analysis) exprOrVar(e microc.Expr) (int, bool) {
	switch e := e.(type) {
	case *microc.VarRef:
		if d, ok := e.Ref.(*microc.VarDecl); ok {
			return a.varNode(d), true
		}
	case *microc.Cast:
		return a.exprOrVar(e.X)
	case *microc.Field:
		if sn, fld, ok := fieldOf(e); ok {
			return a.fieldNode(sn, fld), true
		}
	}
	if n, ok := a.exprNode[e]; ok {
		return n, true
	}
	return -1, false
}

// MayAlias reports whether two lvalue expressions may denote the same
// location.
func (a *Analysis) MayAlias(e1, e2 microc.Expr) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	l1 := a.lvalueLocs(e1)
	l2 := a.lvalueLocs(e2)
	for _, x := range l1 {
		for _, y := range l2 {
			if x.id == y.id {
				return true
			}
		}
	}
	return false
}
