package lang

import (
	"errors"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"1", "1"},
		{"true", "true"},
		{"false", "false"},
		{"x", "x"},
		{"1 + 2", "(1 + 2)"},
		{"1 + 2 + 3", "((1 + 2) + 3)"},
		{"1 = 2", "(1 = 2)"},
		{"not true", "(not true)"},
		{"true && false", "(true && false)"},
		{"1 = 2 && 3 = 4", "((1 = 2) && (3 = 4))"},
		{"if true then 1 else 2", "(if true then 1 else 2)"},
		{"let x = 1 in x + x", "(let x = 1 in (x + x))"},
		{"ref 5", "(ref 5)"},
		{"!x", "(!x)"},
		{"x := 3", "(x := 3)"},
		{"x := y := 3", "(x := (y := 3))"},
		{"{t 1 + 2 t}", "{t (1 + 2) t}"},
		{"{s 1 + 2 s}", "{s (1 + 2) s}"},
		{"{s if true then {t 5 t} else {t 6 t} s}",
			"{s (if true then {t 5 t} else {t 6 t}) s}"},
		{"!x + 1", "((!x) + 1)"},
		{"ref 1 := 2", "((ref 1) := 2)"},
		{"not x = y", "(not (x = y))"}, // unary binds tighter; x = y parses under not? no:
	}
	// The last case deserves care: "not x = y" parses as (not x) = y
	// under our precedence (unary > cmp). Fix the expectation.
	cases[len(cases)-1].want = "((not x) = y)"

	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := e.String(); got != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseFunctions(t *testing.T) {
	cases := []struct{ src, want string }{
		{"fun x -> x", "(fun x -> x)"},
		{"fun x : int -> x + 1", "(fun x : int -> (x + 1))"},
		{"fun f : (int -> bool) -> f 3", "(fun f : (int -> bool) -> (f 3))"},
		{"fun r : int ref -> !r", "(fun r : int ref -> (!r))"},
		{"f 1 2", "((f 1) 2)"},     // left-associative application
		{"f 1 + 2", "((f 1) + 2)"}, // application binds tighter than +
		{"1 < 2", "(1 < 2)"},
		{"x + 1 < y + 2", "((x + 1) < (y + 2))"},
		{"not (x < 0)", "(not (x < 0))"},
		{"(fun x -> x) 5", "((fun x -> x) 5)"},
		{"f {t 1 t}", "(f {t 1 t})"},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := e.String(); got != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.src, got, c.want)
		}
	}
	// "1 2" parses as an application; rejecting it is the type
	// checker's job, not the parser's.
	e, err := Parse("1 2")
	if err != nil {
		t.Fatalf("1 2 should parse as application: %v", err)
	}
	if e.String() != "(1 2)" {
		t.Fatalf("got %s", e.String())
	}
}

func TestParseComments(t *testing.T) {
	src := `
-- a comment
let x = 1 in -- trailing comment
x + 1
`
	e, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "(let x = 1 in (x + 1))" {
		t.Fatalf("got %s", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "let", "let x", "let x = 1", "let x = 1 in",
		"if true then 1", "1 +", "(1", "{t 1 s}", "{s 1 t}",
		"{t 1", "&", "{x 1 x}", "@", "fun", "fun x", "fun x :", "fun x : float -> x",
		"999999999999999999999999999",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("let x = 1 in\n  @")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("got %T, want *SyntaxError", err)
	}
	if se.Pos.Line != 2 {
		t.Fatalf("error line = %d, want 2", se.Pos.Line)
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error message %q should contain position", err.Error())
	}
}

func TestBlockCloserVsIdentifier(t *testing.T) {
	// "t" and "s" are usable as variables except immediately before '}'.
	e, err := Parse("let t = 1 in let s = 2 in t + s")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "(let t = 1 in (let s = 2 in (t + s)))" {
		t.Fatalf("got %s", got)
	}
	// A variable named t separated from '}' by whitespace is still an
	// identifier; only "t}" with no separation closes a block.
	e, err = Parse("{t t t}")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "{t t t}" {
		t.Fatalf("got %s", got)
	}
	if _, err := Parse("{t x t} }"); err == nil {
		t.Fatal("stray '}' should be rejected")
	}
}

func TestHelperConstructors(t *testing.T) {
	e := LetE("x", RefE(I(1)), Seq(AssignE(V("x"), I(2)), DerefE(V("x"))))
	want := "(let x = (ref 1) in (let _ = (x := 2) in (!x)))"
	if got := e.String(); got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
	reparsed, err := Parse(e.String())
	if err != nil {
		t.Fatalf("helper output should reparse: %v", err)
	}
	if reparsed.String() != want {
		t.Fatalf("reparse mismatch: %s", reparsed.String())
	}
}

func TestParseStringReparse(t *testing.T) {
	// Printing then reparsing is a fixed point for a broad set of
	// programs.
	srcs := []string{
		"{s let x = ref 1 in {t !x t} s}",
		"let multithreaded = true in {s if multithreaded then {t 1 t} else {t 2 t} s}",
		"{t 1 + {s if true then {t 5 t} else {t 0 t} s} t}",
		"not (1 = 2) && (3 = 3)",
	}
	for _, src := range srcs {
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", e1.String(), err)
		}
		if e1.String() != e2.String() {
			t.Fatalf("not a fixed point: %q vs %q", e1.String(), e2.String())
		}
	}
}

// TestDeepNestingIsASyntaxError: 500k levels of nesting — about 1MB of
// source — are rejected with an ordinary syntax error instead of
// overflowing the goroutine stack.
func TestDeepNestingIsASyntaxError(t *testing.T) {
	const levels = 500000
	for name, src := range map[string]string{
		"parens":     strings.Repeat("(", levels) + "1" + strings.Repeat(")", levels),
		"lets":       strings.Repeat("let x = 1 in ", levels) + "x",
		"nots":       strings.Repeat("not ", levels) + "true",
		"assigns":    strings.Repeat("x := ", levels) + "1",
		"blocks":     strings.Repeat("{s ", levels) + "1" + strings.Repeat(" s}", levels),
		"types":      "fun x : " + strings.Repeat("(", levels) + "int" + strings.Repeat(")", levels) + " -> x",
		"just-under": strings.Repeat("(", maxDepth/3-10) + "1" + strings.Repeat(")", maxDepth/3-10),
	} {
		_, err := Parse(src)
		if name == "just-under" {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Error(), "nesting deeper than") {
			t.Errorf("%s: err = %v, want a nesting-depth syntax error", name, err)
		}
	}
}
