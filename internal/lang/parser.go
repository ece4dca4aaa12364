package lang

import (
	"fmt"
)

// ParseSource parses the textual contract syntax into a Program (see
// lexer.go for the grammar sketch). The result is the same AST the embedded
// builder produces, so Check/Verify/Compile apply unchanged.
func ParseSource(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.contract()
	if err != nil {
		return nil, err
	}
	return prog, nil
}

type parser struct {
	toks []token
	pos  int
	prog *Program
	// params of the declaration being parsed; nil outside bodies.
	params []Param
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("lang: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

// expectPunct consumes the given punctuation or fails.
func (p *parser) expectPunct(text string) error {
	t := p.advance()
	if t.kind != tokPunct || t.text != text {
		return p.errf(t, "expected %q, got %s", text, t)
	}
	return nil
}

// expectKeyword consumes the given identifier keyword.
func (p *parser) expectKeyword(kw string) error {
	t := p.advance()
	if t.kind != tokIdent || t.text != kw {
		return p.errf(t, "expected %q, got %s", kw, t)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.advance()
	if t.kind != tokIdent {
		return "", p.errf(t, "expected identifier, got %s", t)
	}
	return t.text, nil
}

func (p *parser) isPunct(text string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == text
}

func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == kw
}

func (p *parser) parseType() (Type, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TInvalid, err
	}
	switch name {
	case "UInt":
		return TUInt, nil
	case "Bytes":
		return TBytes, nil
	case "Bool":
		return TBool, nil
	case "Address":
		return TAddress, nil
	default:
		return TInvalid, p.errf(p.toks[p.pos-1], "unknown type %q", name)
	}
}

func (p *parser) contract() (*Program, error) {
	if err := p.expectKeyword("contract"); err != nil {
		return nil, err
	}
	name := p.advance()
	if name.kind != tokString {
		return nil, p.errf(name, "expected contract name string, got %s", name)
	}
	p.prog = NewProgram(name.str)
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	sawCtor := false
	for !p.isPunct("}") {
		t := p.peek()
		if t.kind == tokEOF {
			return nil, p.errf(t, "unterminated contract body")
		}
		switch {
		case p.isKeyword("global"):
			if err := p.globalDecl(); err != nil {
				return nil, err
			}
		case p.isKeyword("map"):
			if err := p.mapDecl(); err != nil {
				return nil, err
			}
		case p.isKeyword("ctor"):
			if sawCtor {
				return nil, p.errf(t, "duplicate ctor")
			}
			sawCtor = true
			if err := p.ctorDecl(); err != nil {
				return nil, err
			}
		case p.isKeyword("api"):
			if err := p.apiDecl(); err != nil {
				return nil, err
			}
		case p.isKeyword("view"):
			if err := p.viewDecl(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf(t, "expected a declaration, got %s", t)
		}
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	if end := p.peek(); end.kind != tokEOF {
		return nil, p.errf(end, "trailing input after contract: %s", end)
	}
	return p.prog, nil
}

func (p *parser) globalDecl() error {
	if err := p.expectKeyword("global"); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	t, err := p.parseType()
	if err != nil {
		return err
	}
	p.prog.DeclareGlobal(name, t)
	return nil
}

func (p *parser) mapDecl() error {
	if err := p.expectKeyword("map"); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	key, err := p.parseType()
	if err != nil {
		return err
	}
	if err := p.expectPunct("->"); err != nil {
		return err
	}
	val, err := p.parseType()
	if err != nil {
		return err
	}
	p.prog.DeclareMap(name, key, val)
	return nil
}

func (p *parser) paramList() ([]Param, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var out []Param
	for !p.isPunct(")") {
		if len(out) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		out = append(out, Param{Name: name, Type: t})
	}
	return out, p.expectPunct(")")
}

func (p *parser) ctorDecl() error {
	if err := p.expectKeyword("ctor"); err != nil {
		return err
	}
	params, err := p.paramList()
	if err != nil {
		return err
	}
	p.params = params
	body, err := p.block()
	p.params = nil
	if err != nil {
		return err
	}
	p.prog.SetConstructor(params, body...)
	return nil
}

func (p *parser) apiDecl() error {
	if err := p.expectKeyword("api"); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	params, err := p.paramList()
	if err != nil {
		return err
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	p.params = params
	defer func() { p.params = nil }()
	var pay Expr
	if p.isKeyword("pay") {
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return err
		}
		pay, err = p.expr()
		if err != nil {
			return err
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	p.prog.AddAPI(&API{Name: name, Params: params, Returns: ret, Pay: pay, Body: body})
	return nil
}

func (p *parser) viewDecl() error {
	if err := p.expectKeyword("view"); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	t, err := p.parseType()
	if err != nil {
		return err
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	e, err := p.expr()
	if err != nil {
		return err
	}
	p.prog.AddView(name, t, e)
	return nil
}

func (p *parser) block() ([]Stmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.isPunct("}") {
		if p.peek().kind == tokEOF {
			return nil, p.errf(p.peek(), "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, p.expectPunct("}")
}

//nolint:gocyclo // one case per statement form.
func (p *parser) stmt() (Stmt, error) {
	t := p.peek()
	switch {
	case p.isKeyword("assume"), p.isKeyword("require"):
		kw := p.advance().text
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		msg := ""
		if p.isPunct(",") {
			p.advance()
			mt := p.advance()
			if mt.kind != tokString {
				return nil, p.errf(mt, "expected message string, got %s", mt)
			}
			msg = mt.str
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if kw == "assume" {
			return &Assume{Cond: cond, Msg: msg}, nil
		}
		return &Require{Cond: cond, Msg: msg}, nil

	case p.isKeyword("set"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.paramIndex(name) >= 0 {
			return nil, p.errf(t, "cannot assign parameter %q (set targets globals)", name)
		}
		if _, err := p.prog.globalIndex(name); err != nil {
			return nil, p.errf(t, "set: %v", err)
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &SetGlobal{Name: name, Value: v}, nil

	case p.isKeyword("delete"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		key, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		return &MapDel{Map: name, Key: key}, nil

	case p.isKeyword("transfer"):
		p.advance()
		amount, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("to"); err != nil {
			return nil, err
		}
		to, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &Transfer{Amount: amount, To: to}, nil

	case p.isKeyword("if"):
		p.advance()
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		then, err := p.block()
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if p.isKeyword("else") {
			p.advance()
			if p.isKeyword("if") {
				// else-if chains: the nested if becomes the else block.
				nested, err := p.stmt()
				if err != nil {
					return nil, err
				}
				els = []Stmt{nested}
			} else {
				els, err = p.block()
				if err != nil {
					return nil, err
				}
			}
		}
		return &If{Cond: cond, Then: then, Else: els}, nil

	case p.isKeyword("emit"):
		p.advance()
		event, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &Emit{Event: event, Value: v}, nil

	case p.isKeyword("return"):
		p.advance()
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &Return{Value: v}, nil

	case t.kind == tokIdent:
		// Map assignment: name[key] = value.
		name := p.advance().text
		if err := p.expectPunct("["); err != nil {
			return nil, p.errf(t, "expected a statement; %q starts none (map writes are name[key] = value)", name)
		}
		key, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &MapSet{Map: name, Key: key, Value: v}, nil

	default:
		return nil, p.errf(t, "expected a statement, got %s", t)
	}
}

func (p *parser) paramIndex(name string) int {
	for i, pr := range p.params {
		if pr.Name == name {
			return i
		}
	}
	return -1
}

// Expression parsing, precedence climbing.

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("||") {
		p.advance()
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = Or(left, right)
	}
	return left, nil
}

func (p *parser) andExpr() (Expr, error) {
	left, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("&&") {
		p.advance()
		right, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		left = And(left, right)
	}
	return left, nil
}

var cmpOps = map[string]BinOp{
	"==": OpEq, "!=": OpNe, "<": OpLt, ">": OpGt, "<=": OpLe, ">=": OpGe,
}

func (p *parser) cmpExpr() (Expr, error) {
	left, err := p.concatExpr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokPunct {
		if op, ok := cmpOps[t.text]; ok {
			p.advance()
			right, err := p.concatExpr()
			if err != nil {
				return nil, err
			}
			return &Bin{Op: op, A: left, B: right}, nil
		}
	}
	return left, nil
}

func (p *parser) concatExpr() (Expr, error) {
	left, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("++") {
		p.advance()
		right, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		left = Concat(left, right)
	}
	return left, nil
}

func (p *parser) addExpr() (Expr, error) {
	left, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("+") || p.isPunct("-") {
		op := p.advance().text
		right, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		if op == "+" {
			left = Add(left, right)
		} else {
			left = Sub(left, right)
		}
	}
	return left, nil
}

func (p *parser) mulExpr() (Expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("*") || p.isPunct("/") || p.isPunct("%") {
		op := p.advance().text
		right, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		switch op {
		case "*":
			left = Mul(left, right)
		case "/":
			left = Div(left, right)
		default:
			left = Mod(left, right)
		}
	}
	return left, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.isPunct("!") {
		p.advance()
		inner, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Not{A: inner}, nil
	}
	return p.primary()
}

//nolint:gocyclo // one case per primary form.
func (p *parser) primary() (Expr, error) {
	t := p.advance()
	switch {
	case t.kind == tokNumber:
		return U(t.num), nil
	case t.kind == tokString:
		return Bs(t.str), nil
	case t.kind == tokPunct && t.text == "(":
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")

	case t.kind == tokIdent:
		switch t.text {
		case "true":
			return True, nil
		case "false":
			return False, nil
		case "balance":
			if err := p.emptyCall(); err != nil {
				return nil, err
			}
			return &Balance{}, nil
		case "caller":
			if err := p.emptyCall(); err != nil {
				return nil, err
			}
			return &Caller{}, nil
		case "paid":
			if err := p.emptyCall(); err != nil {
				return nil, err
			}
			return &Paid{}, nil
		case "now":
			if err := p.emptyCall(); err != nil {
				return nil, err
			}
			return &Now{}, nil
		case "digest":
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &Digest{A: e}, nil
		case "sigok":
			args, err := p.callArgs(3)
			if err != nil {
				return nil, err
			}
			return &SigVerify{Pub: args[0], Msg: args[1], Sig: args[2]}, nil
		case "contains":
			args, err := p.callArgs(2)
			if err != nil {
				return nil, err
			}
			return &CellContains{Cell: args[0], Code: args[1]}, nil
		case "has":
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			key, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &MapHas{Map: name, Key: key}, nil
		}
		// Map get: name[key].
		if p.isPunct("[") {
			p.advance()
			key, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return &MapGet{Map: t.text, Key: key}, nil
		}
		// Parameter (shadows globals) or global.
		if i := p.paramIndex(t.text); i >= 0 {
			return A(i), nil
		}
		if _, err := p.prog.globalIndex(t.text); err == nil {
			return G(t.text), nil
		}
		return nil, p.errf(t, "undefined name %q", t.text)

	default:
		return nil, p.errf(t, "expected an expression, got %s", t)
	}
}

func (p *parser) emptyCall() error {
	if err := p.expectPunct("("); err != nil {
		return err
	}
	return p.expectPunct(")")
}

// callArgs parses a parenthesized, comma-separated list of exactly n
// expression arguments.
func (p *parser) callArgs(n int) ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	args := make([]Expr, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
	return args, p.expectPunct(")")
}
