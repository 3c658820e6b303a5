package syntax

import (
	"fmt"
	"strconv"

	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// Parser is a recursive-descent parser for Stateful NetKAT concrete
// syntax. Env maps bare identifiers used as values (e.g. host names) to
// numbers; names of the form H<k> resolve to topo.HostID(k) automatically.
type Parser struct {
	src  string
	toks []Token
	pos  int
	Env  map[string]int
}

// NewParser builds a parser over the source.
func NewParser(src string) (*Parser, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	return &Parser{src: src, toks: toks, Env: map[string]int{}}, nil
}

// Parse parses a complete command (the whole input).
func Parse(src string) (stateful.Cmd, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	return p.ParseCmd()
}

// ParseProgram parses a command and pairs it with an initial state.
func ParseProgram(src string, init []int) (stateful.Program, error) {
	c, err := Parse(src)
	if err != nil {
		return stateful.Program{}, err
	}
	return stateful.Program{Cmd: c, Init: stateful.State(init)}, nil
}

// ParseCmd parses a command and requires the input to be fully consumed.
func (p *Parser) ParseCmd() (stateful.Cmd, error) {
	n, err := p.union()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.Kind != TokEOF {
		return nil, p.errAt(t, "trailing input")
	}
	return n.toCmd(), nil
}

// node is either a predicate or a command during parsing; predicates are
// promoted to commands (CPred) when combined with command operators.
type node struct {
	pred stateful.Pred
	cmd  stateful.Cmd
}

func (n node) toCmd() stateful.Cmd {
	if n.cmd != nil {
		return n.cmd
	}
	return stateful.CPred{P: n.pred}
}

func (n node) isPred() bool { return n.cmd == nil }

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) peekAt(k int) Token {
	if p.pos+k >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+k]
}

// next consumes a token, except the final EOF: a production that reads two
// before it checks either ("state(0)" ending the input) gets EOF twice.
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos = min(p.pos+1, len(p.toks)-1); return t }

func (p *Parser) expect(k TokKind) (Token, error) {
	t := p.next()
	if t.Kind != k {
		return t, p.errAt(t, "expected %v", k)
	}
	return t, nil
}

func (p *Parser) errAt(t Token, format string, args ...any) error {
	return fmt.Errorf("syntax: offset %d (near %q): %s", t.Pos, t.Text, fmt.Sprintf(format, args...))
}

// union := seq ('+' seq)*
func (p *Parser) union() (node, error) {
	left, err := p.seq()
	if err != nil {
		return node{}, err
	}
	for p.peek().Kind == TokPlus {
		p.next()
		right, err := p.seq()
		if err != nil {
			return node{}, err
		}
		// '+' is command union even over tests; predicate disjunction is
		// written '|' (Figure 4 keeps a∨b and p+q distinct).
		left = node{cmd: stateful.CUnion{L: left.toCmd(), R: right.toCmd()}}
	}
	return left, nil
}

// seq := or (';' or)*
func (p *Parser) seq() (node, error) {
	left, err := p.or()
	if err != nil {
		return node{}, err
	}
	for p.peek().Kind == TokSemi {
		p.next()
		right, err := p.or()
		if err != nil {
			return node{}, err
		}
		left = node{cmd: stateful.CSeq{L: left.toCmd(), R: right.toCmd()}}
	}
	return left, nil
}

// or := and ('|' and)*
func (p *Parser) or() (node, error) {
	left, err := p.and()
	if err != nil {
		return node{}, err
	}
	for p.peek().Kind == TokOr {
		t := p.next()
		right, err := p.and()
		if err != nil {
			return node{}, err
		}
		if !left.isPred() || !right.isPred() {
			return node{}, p.errAt(t, "'|' requires predicate operands")
		}
		left = node{pred: stateful.POr{L: left.pred, R: right.pred}}
	}
	return left, nil
}

// and := postfix ('&' postfix)*
func (p *Parser) and() (node, error) {
	left, err := p.postfix()
	if err != nil {
		return node{}, err
	}
	for p.peek().Kind == TokAnd {
		t := p.next()
		right, err := p.postfix()
		if err != nil {
			return node{}, err
		}
		if !left.isPred() || !right.isPred() {
			return node{}, p.errAt(t, "'&' requires predicate operands")
		}
		left = node{pred: stateful.PAnd{L: left.pred, R: right.pred}}
	}
	return left, nil
}

// postfix := atom ('*')*
func (p *Parser) postfix() (node, error) {
	n, err := p.atom()
	if err != nil {
		return node{}, err
	}
	for p.peek().Kind == TokStar {
		p.next()
		n = node{cmd: stateful.CStar{P: n.toCmd()}}
	}
	return n, nil
}

// atom parses the leaf forms.
func (p *Parser) atom() (node, error) {
	t := p.peek()
	switch t.Kind {
	case TokNot:
		p.next()
		operand, err := p.atom() // '!' binds tighter than '*'
		if err != nil {
			return node{}, err
		}
		if !operand.isPred() {
			return node{}, p.errAt(t, "'!' requires a predicate operand")
		}
		return node{pred: stateful.PNot{P: operand.pred}}, nil
	case TokIdent:
		switch t.Text {
		case "true":
			p.next()
			return node{pred: stateful.PTrue{}}, nil
		case "false":
			p.next()
			return node{pred: stateful.PFalse{}}, nil
		case "state":
			return p.stateAtom()
		default:
			return p.fieldAtom()
		}
	case TokLParen:
		if p.looksLikeLink() {
			return p.link()
		}
		p.next()
		inner, err := p.union()
		if err != nil {
			return node{}, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return node{}, err
		}
		return inner, nil
	default:
		return node{}, p.errAt(t, "expected a test, assignment, link, or '('")
	}
}

// fieldAtom := IDENT ('=' | '!=' | '<-') value
func (p *Parser) fieldAtom() (node, error) {
	name := p.next()
	op := p.next()
	switch op.Kind {
	case TokEq:
		v, err := p.value()
		if err != nil {
			return node{}, err
		}
		return node{pred: stateful.PTest{Field: name.Text, Value: v}}, nil
	case TokNeq:
		v, err := p.value()
		if err != nil {
			return node{}, err
		}
		return node{pred: stateful.PNot{P: stateful.PTest{Field: name.Text, Value: v}}}, nil
	case TokAssign:
		v, err := p.value()
		if err != nil {
			return node{}, err
		}
		return node{cmd: stateful.CAssign{Field: name.Text, Value: v}}, nil
	default:
		return node{}, p.errAt(op, "expected '=', '!=', or '<-' after field %q", name.Text)
	}
}

// stateAtom := 'state' '(' INT ')' ('='|'!=') INT
//
//	| 'state' ('='|'!=') '[' INT (',' INT)* ']'
func (p *Parser) stateAtom() (node, error) {
	p.next() // 'state'
	if p.peek().Kind == TokLParen {
		p.next()
		idx, err := p.expect(TokInt)
		if err != nil {
			return node{}, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return node{}, err
		}
		op := p.next()
		v, err := p.expect(TokInt)
		if err != nil {
			return node{}, err
		}
		switch op.Kind {
		case TokEq:
			return node{pred: stateful.PState{Index: idx.Int, Value: v.Int}}, nil
		case TokNeq:
			return node{pred: stateful.PNot{P: stateful.PState{Index: idx.Int, Value: v.Int}}}, nil
		default:
			return node{}, p.errAt(op, "expected '=' or '!=' after state(%d)", idx.Int)
		}
	}
	op := p.next()
	if op.Kind != TokEq && op.Kind != TokNeq {
		return node{}, p.errAt(op, "expected '=', '!=', or '(' after 'state'")
	}
	vals, err := p.vector()
	if err != nil {
		return node{}, err
	}
	pred := stateful.VecPred(vals...)
	if op.Kind == TokNeq {
		pred = stateful.PNot{P: pred}
	}
	return node{pred: pred}, nil
}

// vector := '[' INT (',' INT)* ']'
func (p *Parser) vector() ([]int, error) {
	if _, err := p.expect(TokLBracket); err != nil {
		return nil, err
	}
	var vals []int
	for {
		v, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v.Int)
		if p.peek().Kind != TokComma {
			break
		}
		p.next()
	}
	if _, err := p.expect(TokRBracket); err != nil {
		return nil, err
	}
	return vals, nil
}

// looksLikeLink reports whether the upcoming tokens start a link:
// '(' INT ':' INT ')' '=>'.
func (p *Parser) looksLikeLink() bool {
	return p.peekAt(0).Kind == TokLParen &&
		p.peekAt(1).Kind == TokInt &&
		p.peekAt(2).Kind == TokColon &&
		p.peekAt(3).Kind == TokInt &&
		p.peekAt(4).Kind == TokRParen &&
		p.peekAt(5).Kind == TokLink
}

// link := loc '=>' loc ['<' stateSets '>']
func (p *Parser) link() (node, error) {
	src, err := p.loc()
	if err != nil {
		return node{}, err
	}
	if _, err := p.expect(TokLink); err != nil {
		return node{}, err
	}
	dst, err := p.loc()
	if err != nil {
		return node{}, err
	}
	if p.peek().Kind != TokLAngle {
		return node{cmd: stateful.CLink{Src: src, Dst: dst}}, nil
	}
	p.next()
	sets, err := p.stateSets()
	if err != nil {
		return node{}, err
	}
	if _, err := p.expect(TokRAngle); err != nil {
		return node{}, err
	}
	return node{cmd: stateful.CLinkState{Src: src, Dst: dst, Sets: sets}}, nil
}

// loc := '(' INT ':' INT ')'
func (p *Parser) loc() (netkat.Location, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return netkat.Location{}, err
	}
	sw, err := p.expect(TokInt)
	if err != nil {
		return netkat.Location{}, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return netkat.Location{}, err
	}
	pt, err := p.expect(TokInt)
	if err != nil {
		return netkat.Location{}, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return netkat.Location{}, err
	}
	return netkat.Location{Switch: sw.Int, Port: pt.Int}, nil
}

// stateSets := stateSet (',' stateSet)*
// stateSet  := 'state' '(' INT ')' '<-' INT | 'state' '<-' vector
func (p *Parser) stateSets() ([]stateful.StateSet, error) {
	var out []stateful.StateSet
	for {
		kw, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if kw.Text != "state" {
			return nil, p.errAt(kw, "expected 'state' in link annotation")
		}
		if p.peek().Kind == TokLParen {
			p.next()
			idx, err := p.expect(TokInt)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokAssign); err != nil {
				return nil, err
			}
			v, err := p.expect(TokInt)
			if err != nil {
				return nil, err
			}
			out = append(out, stateful.StateSet{Index: idx.Int, Value: v.Int})
		} else {
			if _, err := p.expect(TokAssign); err != nil {
				return nil, err
			}
			vals, err := p.vector()
			if err != nil {
				return nil, err
			}
			out = append(out, stateful.VecSets(vals...)...)
		}
		if p.peek().Kind != TokComma {
			return out, nil
		}
		p.next()
	}
}

// value resolves an integer or symbolic value: H<k> means host k's
// address; other identifiers are looked up in Env.
func (p *Parser) value() (int, error) {
	t := p.next()
	switch t.Kind {
	case TokInt:
		return t.Int, nil
	case TokIdent:
		if v, ok := p.Env[t.Text]; ok {
			return v, nil
		}
		if len(t.Text) > 1 && t.Text[0] == 'H' {
			if k, err := strconv.Atoi(t.Text[1:]); err == nil {
				if v := topo.HostID(k); int(int32(v)) == v {
					return v, nil
				}
				return 0, errDomain(p.src, t.Pos, t.Text)
			}
		}
		return 0, p.errAt(t, "unknown value identifier %q", t.Text)
	default:
		return 0, p.errAt(t, "expected a value")
	}
}
