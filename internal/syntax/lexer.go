// Package syntax provides a concrete syntax for Stateful NetKAT
// (Figure 4 of the paper) with a lexer, a recursive-descent parser, and a
// printer. The ASCII rendering of the paper's notation is:
//
//	test        f=4, f!=4, sw=1, pt=2, state(0)=1, state=[0,1]
//	assignment  f<-4, pt<-1
//	link        (1:1)=>(4:1)
//	event link  (1:1)=>(4:1)<state(0)<-1>  or  ...<state<-[1]>
//	operators   !a, a & b, a | b, p; q, p + q, p*
//	host names  H1, H2, ... (sugar for 101, 102, ...)
//
// The printer emits exactly the syntax stateful.Cmd.String produces, and
// the parser accepts it back: parse-print round trips are property-tested.
package syntax

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokLParen   // (
	TokRParen   // )
	TokLBracket // [
	TokRBracket // ]
	TokLAngle   // <
	TokRAngle   // >
	TokEq       // =
	TokNeq      // !=
	TokNot      // !
	TokAssign   // <-
	TokLink     // =>
	TokSemi     // ;
	TokPlus     // +
	TokStar     // *
	TokAnd      // &
	TokOr       // |
	TokColon    // :
	TokComma    // ,
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokInt:
		return "integer"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokLBracket:
		return "'['"
	case TokRBracket:
		return "']'"
	case TokLAngle:
		return "'<'"
	case TokRAngle:
		return "'>'"
	case TokEq:
		return "'='"
	case TokNeq:
		return "'!='"
	case TokNot:
		return "'!'"
	case TokAssign:
		return "'<-'"
	case TokLink:
		return "'=>'"
	case TokSemi:
		return "';'"
	case TokPlus:
		return "'+'"
	case TokStar:
		return "'*'"
	case TokAnd:
		return "'&'"
	case TokOr:
		return "'|'"
	case TokColon:
		return "':'"
	case TokComma:
		return "','"
	default:
		return "?"
	}
}

// Token is one lexeme with its source position.
type Token struct {
	Kind TokKind
	Text string
	Int  int
	Pos  int // byte offset
}

// punct maps a punctuation byte to its one-byte token kind. TokEOF, the
// zero value, marks every byte that starts no token — among them all
// bytes >= 0x80: identifiers and integers are ASCII.
var punct = [256]TokKind{
	'(': TokLParen, ')': TokRParen, '[': TokLBracket, ']': TokRBracket,
	'<': TokLAngle, '>': TokRAngle, '=': TokEq, '!': TokNot,
	';': TokSemi, '+': TokPlus, '*': TokStar, '&': TokAnd,
	'|': TokOr, ':': TokColon, ',': TokComma,
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isLetter reports whether c may start an identifier.
func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }

// errDomain rejects a value written at byte offset pos that no packet can
// carry: header values are int32 (dataplane's Schema.intern enforces the
// same domain on injected packets) and the syntax has no negative
// literals. The compiler's interner treats a wider value as a bug and
// panics, so it has to stop here.
func errDomain(src string, pos int, text string) error {
	return fmt.Errorf("syntax: line %d, offset %d: value %s outside the int32 header-value domain [0, %d]",
		1+strings.Count(src[:pos], "\n"), pos, text, math.MaxInt32)
}

// Lex tokenizes the input. Comments run from '#' to end of line.
func Lex(src string) ([]Token, error) {
	// Rendered programs run at 1.5 to 1.9 bytes per token; a denser input
	// grows the slice as append does.
	toks := make([]Token, 0, len(src)*2/3+1)
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isDigit(c):
			j := i
			for j < len(src) && isDigit(src[j]) {
				j++
			}
			n, err := strconv.Atoi(src[i:j])
			if err != nil || n > math.MaxInt32 {
				return nil, errDomain(src, i, src[i:j])
			}
			toks = append(toks, Token{Kind: TokInt, Text: src[i:j], Int: n, Pos: i})
			i = j
		case isLetter(c):
			j := i
			for j < len(src) && (isLetter(src[j]) || isDigit(src[j])) {
				j++
			}
			toks = append(toks, Token{Kind: TokIdent, Text: src[i:j], Pos: i})
			i = j
		default:
			kind, n := punct[c], 1
			if i+1 < len(src) {
				switch {
				case c == '<' && src[i+1] == '-':
					kind, n = TokAssign, 2
				case c == '=' && src[i+1] == '>':
					kind, n = TokLink, 2
				case c == '!' && src[i+1] == '=':
					kind, n = TokNeq, 2
				}
			}
			if kind == TokEOF {
				return nil, fmt.Errorf("syntax: unexpected character %q at offset %d", src[i:i+1], i)
			}
			toks = append(toks, Token{Kind: kind, Text: src[i : i+n], Pos: i})
			i += n
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: len(src)})
	return toks, nil
}
