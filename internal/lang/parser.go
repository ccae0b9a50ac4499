package lang

import (
	"fmt"
	"strconv"
)

// Parse parses a core-language program. The grammar, from lowest to
// highest precedence:
//
//	expr   ::= "let" ident "=" expr "in" expr
//	         | "if" expr "then" expr "else" expr
//	         | "fun" ident ( ":" type )? "->" expr
//	         | assign
//	assign ::= conj ( ":=" assign )?            -- right associative
//	conj   ::= cmp ( "&&" cmp )*
//	cmp    ::= add ( ("=" | "<") add )?         -- non associative
//	add    ::= unary ( "+" unary )*
//	unary  ::= ("not" | "!" | "ref") unary | app
//	app    ::= atom atom*                       -- application, left assoc
//	atom   ::= int | "true" | "false" | ident
//	         | "(" expr ")" | "{t" expr "t}" | "{s" expr "s}"
//	type   ::= tprim ( "->" type )?             -- right associative
//	tprim  ::= ("int" | "bool" | "(" type ")") "ref"*
//
// Comments run from "--" to end of line.
func Parse(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", tokenNames[p.cur().kind])
	}
	return e, nil
}

// MustParse parses src and panics on error; for tests and examples.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// ParseType parses surface type syntax ("int", "bool ref",
// "int -> bool", ...).
func ParseType(src string) (TypeExpr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errorf("unexpected %s after type", tokenNames[p.cur().kind])
	}
	return t, nil
}

type parser struct {
	toks  []token
	i     int
	depth int // open parseExpr/parseAssign/parseUnary/parseType calls
}

// maxDepth bounds syntactic nesting. Deeper input is a syntax error
// rather than a goroutine stack overflow, which recover() cannot catch.
const maxDepth = 10000

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return p.errorf("nesting deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{p.cur().pos, fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.cur().kind != k {
		return token{}, p.errorf("expected %s, found %s", tokenNames[k], tokenNames[p.cur().kind])
	}
	return p.advance(), nil
}

func (p *parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.cur().kind {
	case tokLet:
		pos := p.advance().pos
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEq); err != nil {
			return nil, err
		}
		bound, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokIn); err != nil {
			return nil, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return Let{base{pos}, name.text, bound, body}, nil
	case tokIf:
		pos := p.advance().pos
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokThen); err != nil {
			return nil, err
		}
		thn, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokElse); err != nil {
			return nil, err
		}
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return If{base{pos}, cond, thn, els}, nil
	case tokFun:
		pos := p.advance().pos
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		var ann TypeExpr
		if p.cur().kind == tokColon {
			p.advance()
			// The annotation stops before "->" so the body separator
			// is unambiguous; arrow-typed parameters need parentheses:
			// fun f : (int -> bool) -> ...
			ann, err = p.parseTypePrim()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokArrow); err != nil {
			return nil, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return Fun{base{pos}, name.text, ann, body}, nil
	}
	return p.parseAssign()
}

// parseType parses surface type syntax (arrows right-associative,
// "ref" postfix).
func (p *parser) parseType() (TypeExpr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	prim, err := p.parseTypePrim()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokArrow {
		p.advance()
		ret, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return TyFun{prim, ret}, nil
	}
	return prim, nil
}

func (p *parser) parseTypePrim() (TypeExpr, error) {
	var t TypeExpr
	switch p.cur().kind {
	case tokIdent:
		switch p.cur().text {
		case "int":
			t = TyInt{}
		case "bool":
			t = TyBool{}
		default:
			return nil, p.errorf("expected type, found identifier %q", p.cur().text)
		}
		p.advance()
	case tokLParen:
		p.advance()
		inner, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		t = inner
	default:
		return nil, p.errorf("expected type, found %s", tokenNames[p.cur().kind])
	}
	for p.cur().kind == tokRef {
		p.advance()
		t = TyRef{t}
	}
	return t, nil
}

func (p *parser) parseAssign() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	lhs, err := p.parseConj()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokAssign {
		pos := p.advance().pos
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return Assign{base{pos}, lhs, rhs}, nil
	}
	return lhs, nil
}

func (p *parser) parseConj() (Expr, error) {
	lhs, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokAndAnd {
		pos := p.advance().pos
		rhs, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		lhs = And{base{pos}, lhs, rhs}
	}
	return lhs, nil
}

func (p *parser) parseCmp() (Expr, error) {
	lhs, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	switch p.cur().kind {
	case tokEq:
		pos := p.advance().pos
		rhs, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return Eq{base{pos}, lhs, rhs}, nil
	case tokLt:
		pos := p.advance().pos
		rhs, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return Lt{base{pos}, lhs, rhs}, nil
	}
	return lhs, nil
}

func (p *parser) parseAdd() (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPlus {
		pos := p.advance().pos
		rhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		lhs = Plus{base{pos}, lhs, rhs}
	}
	return lhs, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.cur().kind {
	case tokNot:
		pos := p.advance().pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{base{pos}, x}, nil
	case tokBang:
		pos := p.advance().pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Deref{base{pos}, x}, nil
	case tokRef:
		pos := p.advance().pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Ref{base{pos}, x}, nil
	}
	return p.parseApp()
}

// parseApp parses left-associative application by juxtaposition.
func (p *parser) parseApp() (Expr, error) {
	f, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for p.atAtomStart() {
		arg, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		f = App{base{f.Pos()}, f, arg}
	}
	return f, nil
}

// atAtomStart reports whether the current token can begin an atom
// (used to detect application arguments).
func (p *parser) atAtomStart() bool {
	switch p.cur().kind {
	case tokInt, tokTrue, tokFalse, tokIdent, tokLParen, tokLBraceT, tokLBraceS:
		return true
	}
	return false
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, &SyntaxError{t.pos, "integer literal out of range"}
		}
		return IntLit{base{t.pos}, v}, nil
	case tokTrue:
		p.advance()
		return BoolLit{base{t.pos}, true}, nil
	case tokFalse:
		p.advance()
		return BoolLit{base{t.pos}, false}, nil
	case tokIdent:
		p.advance()
		return Var{base{t.pos}, t.text}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBraceT:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBraceT); err != nil {
			return nil, err
		}
		return TypedBlock{base{t.pos}, e}, nil
	case tokLBraceS:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBraceS); err != nil {
			return nil, err
		}
		return SymBlock{base{t.pos}, e}, nil
	}
	return nil, p.errorf("expected expression, found %s", tokenNames[t.kind])
}
