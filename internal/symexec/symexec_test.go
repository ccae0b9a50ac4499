package symexec

import (
	"mix/internal/engine"
	"strings"
	"testing"

	"mix/internal/microc"
	"mix/internal/pointer"
)

// run executes entry in src and returns the executor.
func run(t *testing.T, src, entry string) (*Executor, []Outcome) {
	t.Helper()
	prog := mustParse(src)
	x := New(prog, pointer.Analyze(prog), engine.New(engine.Options{}))
	outs, err := x.Run(entry)
	if err != nil {
		t.Fatalf("Run(%s): %v", entry, err)
	}
	return x, outs
}

func hasReport(x *Executor, kind ReportKind, frag string) bool {
	for _, r := range x.ReportsOf(kind) {
		if strings.Contains(r.Msg, frag) {
			return true
		}
	}
	return false
}

func TestStraightLine(t *testing.T) {
	x, outs := run(t, `
int f(void) {
  int a = 1;
  int b = 2;
  return a + b;
}
`, "f")
	if len(outs) != 1 {
		t.Fatalf("paths = %d", len(outs))
	}
	if len(x.Reports) != 0 {
		t.Fatalf("reports: %v", x.Reports)
	}
}

func TestForkOnSymbolicParam(t *testing.T) {
	x, outs := run(t, `
int f(int n) {
  if (n > 0) return 1;
  return 2;
}
`, "f")
	if len(outs) != 2 {
		t.Fatalf("paths = %d, want 2", len(outs))
	}
	if x.Stats.Forks != 1 {
		t.Fatalf("forks = %d", x.Stats.Forks)
	}
}

func TestInfeasibleBranchPruned(t *testing.T) {
	_, outs := run(t, `
int f(int n) {
  if (n > 0) {
    if (n < 0) return 99;
    return 1;
  }
  return 2;
}
`, "f")
	if len(outs) != 2 {
		t.Fatalf("paths = %d, want 2 (n>0&&n<0 pruned)", len(outs))
	}
}

func TestNullDerefDetected(t *testing.T) {
	x, _ := run(t, `
int f(void) {
  int *p = NULL;
  return *p;
}
`, "f")
	if !hasReport(x, NullDeref, "p") {
		t.Fatalf("expected null-deref report, got %v", x.Reports)
	}
}

func TestNullCheckGuardsDeref(t *testing.T) {
	// Path sensitivity: the deref happens only when p != NULL.
	x, _ := run(t, `
int f(int *p) {
  if (p != NULL) return *p;
  return 0;
}
`, "f")
	if len(x.ReportsOf(NullDeref)) != 0 {
		t.Fatalf("guarded deref must not warn: %v", x.Reports)
	}
}

func TestUnguardedParamDerefWarns(t *testing.T) {
	// A parameter in an arbitrary context may be null.
	x, _ := run(t, `
int f(int *p) { return *p; }
`, "f")
	if !hasReport(x, NullDeref, "p") {
		t.Fatalf("expected warning, got %v", x.Reports)
	}
}

func TestMallocIsNonNull(t *testing.T) {
	x, _ := run(t, `
int f(void) {
  int *p = malloc(sizeof(int));
  return *p;
}
`, "f")
	if len(x.ReportsOf(NullDeref)) != 0 {
		t.Fatalf("malloc result is non-null: %v", x.Reports)
	}
}

func TestFlowSensitivity(t *testing.T) {
	// NULL is overwritten before the deref; flow-sensitive execution
	// must not warn (this is what the type system gets wrong).
	x, _ := run(t, `
int f(void) {
  int *p = NULL;
  p = malloc(sizeof(int));
  return *p;
}
`, "f")
	if len(x.ReportsOf(NullDeref)) != 0 {
		t.Fatalf("overwritten null must not warn: %v", x.Reports)
	}
}

func TestNonNullParamChecked(t *testing.T) {
	x, _ := run(t, `
void sink(int *nonnull q) { return; }
int f(void) {
  sink(NULL);
  return 0;
}
`, "f")
	if !hasReport(x, NullArg, "q") {
		t.Fatalf("expected null-arg report, got %v", x.Reports)
	}
}

func TestNonNullParamGuardedCall(t *testing.T) {
	x, _ := run(t, `
void sink(int *nonnull q) { return; }
int f(int *p) {
  if (p != NULL) sink(p);
  return 0;
}
`, "f")
	if len(x.ReportsOf(NullArg)) != 0 {
		t.Fatalf("guarded call must not warn: %v", x.Reports)
	}
}

func TestCase1EndToEnd(t *testing.T) {
	// The full Case 1 shape in pure symbolic execution.
	x, _ := run(t, `
struct sockaddr { int family; };
void sysutil_free(void *nonnull p_ptr) { return; }
void sockaddr_clear(struct sockaddr **p_sock) {
  if (*p_sock != NULL) {
    sysutil_free(*p_sock);
    *p_sock = NULL;
  }
}
`, "sockaddr_clear")
	if len(x.ReportsOf(NullArg)) != 0 {
		t.Fatalf("Case 1: symbolic executor must prove *p_sock non-null: %v", x.Reports)
	}
}

func TestCallsAndReturns(t *testing.T) {
	_, outs := run(t, `
int id(int v) { return v; }
int f(void) { return id(41) + 1; }
`, "f")
	if len(outs) != 1 {
		t.Fatalf("paths = %d", len(outs))
	}
	if got := outs[0].Ret.String(); got != "(41 + 1)" {
		t.Fatalf("ret = %s", got)
	}
}

func TestLoopUnrollBound(t *testing.T) {
	x, outs := run(t, `
int f(int n) {
  int i = 0;
  while (i < n) {
    i = i + 1;
  }
  return i;
}
`, "f")
	if len(x.ReportsOf(LoopBound)) == 0 {
		t.Fatal("symbolic loop bound should be reported")
	}
	// Paths: exit after 0..MaxUnroll iterations.
	if len(outs) == 0 || len(outs) > x.MaxUnroll+1 {
		t.Fatalf("paths = %d", len(outs))
	}
}

func TestConcreteLoopTerminates(t *testing.T) {
	x, outs := run(t, `
int f(void) {
  int i = 0;
  while (i < 3) { i = i + 1; }
  return i;
}
`, "f")
	if len(outs) != 1 {
		t.Fatalf("paths = %d", len(outs))
	}
	if len(x.ReportsOf(LoopBound)) != 0 {
		t.Fatalf("concrete loop fits in bound: %v", x.Reports)
	}
}

func TestExternHavoc(t *testing.T) {
	x, _ := run(t, `
int *getenv_(void);
int f(void) {
  int *p = getenv_();
  return *p;
}
`, "f")
	// Extern may return null: deref must warn.
	if !hasReport(x, NullDeref, "p") {
		t.Fatalf("extern result deref should warn: %v", x.Reports)
	}
}

func TestFunctionPointerConcrete(t *testing.T) {
	x, _ := run(t, `
int fired;
void handler(void) { fired = 1; }
fnptr cb;
int f(void) {
  cb = handler;
  (*cb)();
  return fired;
}
`, "f")
	if len(x.ReportsOf(UnsupportedFnPtr)) != 0 {
		t.Fatalf("concrete fn ptr should be callable: %v", x.Reports)
	}
}

func TestSymbolicFunctionPointerUnsupported(t *testing.T) {
	// Case 4's limitation: an uninitialized function pointer cell is
	// symbolic; calling it is unsupported.
	x, _ := run(t, `
fnptr s_exit_func;
int f(void) {
  if (s_exit_func != NULL) (*s_exit_func)();
  return 0;
}
`, "f")
	if len(x.ReportsOf(UnsupportedFnPtr)) == 0 {
		t.Fatalf("expected fnptr report, got %v", x.Reports)
	}
}

func TestStructFieldsThroughPointer(t *testing.T) {
	x, outs := run(t, `
struct pair { int a; int b; };
int f(void) {
  struct pair *p = malloc(sizeof(struct pair));
  p->a = 1;
  p->b = 2;
  return p->a + p->b;
}
`, "f")
	if len(outs) != 1 {
		t.Fatalf("paths = %d", len(outs))
	}
	if got := outs[0].Ret.String(); got != "(1 + 2)" {
		t.Fatalf("ret = %s", got)
	}
	if len(x.Reports) != 0 {
		t.Fatalf("reports: %v", x.Reports)
	}
}

func TestLocalInitializationIdiom(t *testing.T) {
	// Section 2's "local initialization of shared data": malloc then
	// initialize fields; symbolic execution sees the object is local.
	x, _ := run(t, `
struct foo { int *bar; int *baz; };
struct foo *g;
void f(void) {
  struct foo *x = malloc(sizeof(struct foo));
  x->bar = malloc(sizeof(int));
  x->baz = malloc(sizeof(int));
  g = x;
}
`, "f")
	if len(x.ReportsOf(NullDeref)) != 0 {
		t.Fatalf("no null deref expected: %v", x.Reports)
	}
}

func TestAliasingThroughDoublePointer(t *testing.T) {
	x, _ := run(t, `
int f(void) {
  int *p = NULL;
  int **pp = &p;
  *pp = malloc(sizeof(int));
  return *p;
}
`, "f")
	if len(x.ReportsOf(NullDeref)) != 0 {
		t.Fatalf("write through alias should cure null: %v", x.Reports)
	}
}

func TestGlobalInitializers(t *testing.T) {
	x, _ := run(t, `
int *g = NULL;
int f(void) { return *g; }
`, "f")
	if !hasReport(x, NullDeref, "g") {
		t.Fatalf("global NULL initializer must warn: %v", x.Reports)
	}
}

func TestRecursionDepthBounded(t *testing.T) {
	x, outs := run(t, `
int f(int n) {
  if (n < 1) return 0;
  return f(n - 1);
}
`, "f")
	if len(outs) == 0 {
		t.Fatal("no outcomes")
	}
	if len(x.ReportsOf(Imprecision)) == 0 {
		t.Fatal("expected a depth-bound report for symbolic recursion")
	}
}

func TestFreshMallocPerExecution(t *testing.T) {
	// Unlike the pointer analysis, the executor distinguishes two
	// executions of one malloc site.
	_, outs := run(t, `
int *mk(void) { return malloc(sizeof(int)); }
int f(void) {
  int *a = mk();
  int *b = mk();
  if (a == b) return 1;
  return 0;
}
`, "f")
	if len(outs) != 1 {
		t.Fatalf("a==b should be definitely false; paths = %d", len(outs))
	}
	if outs[0].Ret.String() != "0" {
		t.Fatalf("ret = %s", outs[0].Ret)
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
