package microc

import (
	"errors"
	"strings"
	"testing"
)

func TestParseMinimal(t *testing.T) {
	prog := mustParse(`
int main(void) {
  return 0;
}
`)
	f, ok := prog.Func("main")
	if !ok {
		t.Fatal("main not found")
	}
	if len(f.Params) != 0 || f.IsExtern() {
		t.Fatalf("unexpected main shape: %+v", f)
	}
	if _, ok := f.Ret.(IntType); !ok {
		t.Fatalf("return type %s", f.Ret)
	}
}

func TestParseStructAndFields(t *testing.T) {
	prog := mustParse(`
struct sockaddr {
  int family;
  int *data;
};
struct sockaddr *g;
int use(struct sockaddr *p) {
  p->family = 1;
  return p->family;
}
`)
	s, ok := prog.Struct("sockaddr")
	if !ok || len(s.Fields) != 2 {
		t.Fatalf("struct: %+v", s)
	}
	if _, ok := prog.Global("g"); !ok {
		t.Fatal("global g missing")
	}
}

func TestQualifierAnnotations(t *testing.T) {
	prog := mustParse(`
void sysutil_free(void *nonnull p_ptr) MIX(typed) { return; }
int *null maybe;
`)
	f, _ := prog.Func("sysutil_free")
	if f.Mix != MixTyped {
		t.Fatalf("Mix = %v", f.Mix)
	}
	pt := f.Params[0].Type.(PtrType)
	if pt.Qual != QNonNull {
		t.Fatalf("param qual = %v", pt.Qual)
	}
	g, _ := prog.Global("maybe")
	if g.Type.(PtrType).Qual != QNull {
		t.Fatalf("global qual = %v", g.Type.(PtrType).Qual)
	}
}

func TestMixAnnotations(t *testing.T) {
	prog := mustParse(`
void a(void) MIX(symbolic) { return; }
void b(void) MIX(typed) { return; }
void c(void) { return; }
void d(int x) MIX(symbolic);
`)
	for name, want := range map[string]MixAnno{
		"a": MixSymbolic, "b": MixTyped, "c": MixNone, "d": MixSymbolic,
	} {
		f, _ := prog.Func(name)
		if f.Mix != want {
			t.Errorf("%s: Mix = %v, want %v", name, f.Mix, want)
		}
	}
	d, _ := prog.Func("d")
	if !d.IsExtern() {
		t.Fatal("d should be extern")
	}
}

func TestCase1SourceParses(t *testing.T) {
	// The paper's Case 1, transcribed.
	prog := mustParse(`
struct sockaddr { int family; };
void sysutil_free(void *nonnull p_ptr) MIX(typed);
void sockaddr_clear(struct sockaddr **p_sock) MIX(symbolic) {
  if (*p_sock != NULL) {
    sysutil_free(*p_sock);
    *p_sock = NULL;
  }
}
`)
	f, _ := prog.Func("sockaddr_clear")
	if f.Mix != MixSymbolic || len(f.Params) != 1 {
		t.Fatalf("sockaddr_clear: %+v", f)
	}
	inner := f.Params[0].Type.(PtrType).Elem.(PtrType)
	if !TypeEqual(inner.Elem, StructType{"sockaddr"}) {
		t.Fatalf("param type %s", f.Params[0].Type)
	}
}

func TestMallocAndCast(t *testing.T) {
	prog := mustParse(`
struct foo { int bar; };
struct foo *mk(void) {
  struct foo *x = (struct foo *) malloc(sizeof(struct foo));
  x->bar = 1;
  return x;
}
int *mkint(void) { return malloc(sizeof(int)); }
`)
	f, _ := prog.Func("mk")
	if len(f.Locals) != 1 {
		t.Fatalf("locals: %v", f.Locals)
	}
	// Distinct malloc sites get distinct ids.
	var sites []int
	var walk func(e Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case *Malloc:
			sites = append(sites, e.Site)
		case *Cast:
			walk(e.X)
		}
	}
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		for _, s := range fn.Body.Stmts {
			switch s := s.(type) {
			case *DeclStmt:
				if s.Decl.Init != nil {
					walk(s.Decl.Init)
				}
			case *ReturnStmt:
				if s.X != nil {
					walk(s.X)
				}
			}
		}
	}
	if len(sites) != 2 || sites[0] == sites[1] {
		t.Fatalf("malloc sites %v", sites)
	}
}

func TestFunctionPointers(t *testing.T) {
	prog := mustParse(`
fnptr s_exit_func;
void handler(void) { return; }
void install(void) { s_exit_func = handler; }
void fire(void) {
  if (s_exit_func != NULL) (*s_exit_func)();
}
`)
	if _, ok := prog.Global("s_exit_func"); !ok {
		t.Fatal("fnptr global missing")
	}
}

func TestControlFlowParses(t *testing.T) {
	mustParse(`
int sum(int n) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    acc = acc + i;
    i = i + 1;
  }
  if (acc > 10 && n != 0) return acc;
  else return 0 - acc;
}
`)
}

func TestResolverErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{"int f(void) { return x; }", "undefined name x"},
		{"int f(void) { return g(); }", "undefined name g"},
		{"struct s *p;", "undefined struct s"},
		{"int f(int x, int x) { return 0; }", "duplicate declaration"},
		{"int f(void) { int x = 1; int x = 2; return x; }", "duplicate declaration"},
		{"int f(void) { return 1; } int f(void) { return 2; }", "duplicate function"},
		{"int g; int g;", "duplicate global"},
		{"void f(void) { return 1; }", "void function"},
		{"int f(int *p) { return *p + NULL; }", "arithmetic on non-int"},
		{"int f(void) { 1 = 2; return 0; }", "non-lvalue"},
		{"int f(void *p) { return *p; }", "void*"},
		{"struct s { int a; }; int f(struct s *p) { return p->b; }", "no field b"},
		{"int f(int x) { return x(); }", "call of non-function"},
		{"int f(int x) { return f(x, x); }", "expects 1 arguments"},
		{"int f(int *p) { int x = p; return x; }", "cannot assign"},
		{"int f(void) { if (1) return 1 }", "expected ';'"},
		{"int f(", "expected"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%q: expected error with %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: error %q, want fragment %q", c.src, err, c.frag)
		}
	}
}

func TestShadowingInNestedBlocks(t *testing.T) {
	prog := mustParse(`
int f(int x) {
  int y = x;
  if (x > 0) {
    int y = 2;
    x = y;
  }
  return y;
}
`)
	f, _ := prog.Func("f")
	if len(f.Locals) != 2 {
		t.Fatalf("expected 2 locals (both y), got %d", len(f.Locals))
	}
}

func TestNullComparisons(t *testing.T) {
	mustParse(`
struct s { int a; };
int f(struct s *p, int *q) {
  if (p == NULL) return 0;
  if (NULL != q) return 1;
  return 2;
}
`)
}

func TestCommentsAndWhitespace(t *testing.T) {
	mustParse(`
// line comment
/* block
   comment */
int f(void) { return 0; } // trailing
`)
	if _, err := Parse("/* unterminated"); err == nil {
		t.Fatal("unterminated comment should error")
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	prog := mustParse(`
struct s { int a; };
int f(struct s *p, int x) {
  p->a = x + 1 - 2;
  return p->a == x;
}
`)
	f, _ := prog.Func("f")
	es := f.Body.Stmts[0].(*ExprStmt)
	if got := es.X.String(); got != "p->a = ((x + 1) - 2)" {
		t.Fatalf("got %q", got)
	}
}

// mustParse parses a test fixture, panicking on error; Parse itself
// reports errors through the normal return path.
func mustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic("bad MicroC fixture: " + err.Error())
	}
	return prog
}

// TestDeepNestingIsAParseError: 500k levels of nesting — about 1MB of
// source — are rejected with an ordinary parse error instead of
// overflowing the goroutine stack.
func TestDeepNestingIsAParseError(t *testing.T) {
	const levels = 500000
	for name, src := range map[string]string{
		"parens":     "int main(void) { return " + strings.Repeat("(", levels) + "0" + strings.Repeat(")", levels) + "; }",
		"derefs":     "int main(void) { return " + strings.Repeat("*", levels) + "0; }",
		"assigns":    "int x; int main(void) { " + strings.Repeat("x = ", levels) + "0; return 0; }",
		"blocks":     "int main(void) " + strings.Repeat("{", levels) + strings.Repeat("}", levels),
		"just-under": "int main(void) { return " + strings.Repeat("(", maxDepth/2-10) + "0" + strings.Repeat(")", maxDepth/2-10) + "; }",
	} {
		_, err := Parse(src)
		if name == "just-under" {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Error(), "nesting deeper than") {
			t.Errorf("%s: err = %v, want a nesting-depth parse error", name, err)
		}
	}
}
