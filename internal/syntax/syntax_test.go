package syntax

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"eventnet/internal/apps"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
)

func mustParse(t *testing.T, src string) stateful.Cmd {
	t.Helper()
	c, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return c
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"true", "true"},
		{"pt=2", "pt=2"},
		{"dst!=4", "!dst=4"},
		{"pt<-1", "pt<-1"},
		{"pt=2 & dst=104", "pt=2 & dst=104"},
		{"a=1 | b=2", "a=1 | b=2"},
		{"!(a=1 & b=2)", "!(a=1 & b=2)"},
		{"pt=2; pt<-1", "pt=2; pt<-1"},
		{"a=1 + b=2", "a=1 + b=2"},
		{"(1:1)=>(4:1)", "(1:1)=>(4:1)"},
		{"(1:1)=>(4:1)<state(0)<-1>", "(1:1)=>(4:1)<state(0)<-1>"},
		{"state(0)=1", "state(0)=1"},
		{"state(0)!=1", "!state(0)=1"},
		{"(a=1; b<-2)*", "(a=1; b<-2)*"},
		{"dst=H4", "dst=104"},
		{"a=1; b=2 + c=3", "a=1; b=2 + c=3"}, // '+' binds loosest
	}
	for _, c := range cases {
		got := mustParse(t, c.src).String()
		if got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseVectorSugar(t *testing.T) {
	c := mustParse(t, "state=[0,1]")
	want := stateful.PAnd{L: stateful.PState{Index: 0, Value: 0}, R: stateful.PState{Index: 1, Value: 1}}
	if c.String() != (stateful.CPred{P: want}).String() {
		t.Errorf("vector test: %v", c)
	}
	c = mustParse(t, "(1:1)=>(4:1)<state<-[7,8]>")
	ls, ok := c.(stateful.CLinkState)
	if !ok || len(ls.Sets) != 2 || ls.Sets[0] != (stateful.StateSet{Index: 0, Value: 7}) || ls.Sets[1] != (stateful.StateSet{Index: 1, Value: 8}) {
		t.Errorf("vector assign: %#v", c)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "pt=", "pt<-", "a=1 &", "a=1 & pt<-2", "pt<-2 | a=1",
		"!pt<-1", "(1:1)=>(4:1", "(1:1)=>(4:1)<state>", "state=[]",
		"a=1 b=2", "dst=Hx", "dst=unknown", "@",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

// TestParseRejectsOutOfDomainValues: a value no packet can carry is an
// ordinary located error wherever it is written — the compiler's interner
// panics on one (nkc.checkAtomValue), so none may get past the parser.
func TestParseRejectsOutOfDomainValues(t *testing.T) {
	for _, tc := range []struct {
		src          string
		line, offset int
	}{
		{"pt=2 & dst=3000000000; pt<-1\n", 1, 11},
		{"pt=2;\n# comment\n  dst<-2147483648", 3, 23},
		{"dst!=99999999999999999999", 1, 5},
		{"(1:1)=>(4294967297:1)", 1, 8},
		{"a=1 +\nstate(0)=2147483648", 2, 15},
		{"dst=1;\ndst=H2147483600", 2, 11},
	} {
		_, err := Parse(tc.src)
		want := fmt.Sprintf("line %d, offset %d:", tc.line, tc.offset)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "int32") {
			t.Errorf("Parse(%q) = %v; want an int32-domain error at %s", tc.src, err, want)
		}
	}
	if _, err := Parse("dst=2147483647 & src=H2147483547"); err != nil {
		t.Errorf("the largest int32 rejected: %v", err)
	}
}

func TestParseEnv(t *testing.T) {
	p, err := NewParser("dst=server")
	if err != nil {
		t.Fatal(err)
	}
	p.Env["server"] = 42
	c, err := p.ParseCmd()
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != "dst=42" {
		t.Errorf("env resolution: %v", c)
	}
}

// TestFirewallSourceMatchesAST parses the Figure 9(a) program text and
// checks it behaves identically to the AST in internal/apps.
func TestFirewallSourceMatchesAST(t *testing.T) {
	src := `
# Figure 9(a): stateful firewall
pt=2 & dst=H4; pt<-1; (state=[0]; (1:1)=>(4:1)<state<-[1]>
                      + state!=[0]; (1:1)=>(4:1)); pt<-2
+ pt=2 & dst=H1; state=[1]; pt<-1; (4:1)=>(1:1); pt<-2
`
	parsed := mustParse(t, src)
	ast := apps.Firewall().Prog.Cmd
	for _, k := range []stateful.State{{0}, {1}} {
		pp := stateful.Project(parsed, k)
		pa := stateful.Project(ast, k)
		// Compare semantically on a grid of packets.
		for _, dst := range []int{apps.H(1), apps.H(4), 7} {
			for sw := 1; sw <= 4; sw++ {
				for pt := 1; pt <= 2; pt++ {
					lp := netkat.LocatedPacket{Pkt: netkat.Packet{"dst": dst}, Loc: netkat.Location{Switch: sw, Port: pt}}
					if !netkat.EquivOn(pp, pa, []netkat.LocatedPacket{lp}) {
						t.Fatalf("state %v: parsed and AST differ on %v", k, lp)
					}
				}
			}
		}
		ep, err := stateful.Events(parsed, k)
		if err != nil {
			t.Fatal(err)
		}
		ea, err := stateful.Events(ast, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(ep) != len(ea) {
			t.Fatalf("state %v: %d vs %d event edges", k, len(ep), len(ea))
		}
		for i := range ep {
			if ep[i].Key() != ea[i].Key() {
				t.Fatalf("state %v: edge %d differs: %v vs %v", k, i, ep[i], ea[i])
			}
		}
	}
}

// chooser makes randCmd's choices: a *rand.Rand, or the bytes of a fuzz
// input (byteChooser).
type chooser interface{ Intn(n int) int }

// randCmd generates a random command for round-trip testing.
func randCmd(r chooser, depth int) stateful.Cmd {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return stateful.CPred{P: randPred(r, 0)}
		case 1:
			return stateful.CAssign{Field: []string{"a", "b", "pt"}[r.Intn(3)], Value: r.Intn(4)}
		case 2:
			return stateful.CLink{Src: netkat.Location{Switch: 1 + r.Intn(3), Port: 1 + r.Intn(3)}, Dst: netkat.Location{Switch: 1 + r.Intn(3), Port: 1 + r.Intn(3)}}
		case 3:
			return stateful.CLinkState{
				Src:  netkat.Location{Switch: 1 + r.Intn(3), Port: 1 + r.Intn(3)},
				Dst:  netkat.Location{Switch: 1 + r.Intn(3), Port: 1 + r.Intn(3)},
				Sets: []stateful.StateSet{{Index: r.Intn(2), Value: r.Intn(3)}},
			}
		default:
			return stateful.CPred{P: stateful.PState{Index: r.Intn(2), Value: r.Intn(3)}}
		}
	}
	switch r.Intn(4) {
	case 0:
		return stateful.CUnion{L: randCmd(r, depth-1), R: randCmd(r, depth-1)}
	case 1:
		return stateful.CSeq{L: randCmd(r, depth-1), R: randCmd(r, depth-1)}
	case 2:
		return stateful.CStar{P: randCmd(r, depth-1)}
	default:
		return stateful.CPred{P: randPred(r, depth)}
	}
}

func randPred(r chooser, depth int) stateful.Pred {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return stateful.PTrue{}
		case 1:
			return stateful.PFalse{}
		case 2:
			return stateful.PState{Index: r.Intn(2), Value: r.Intn(3)}
		default:
			return stateful.PTest{Field: []string{"a", "b", "pt"}[r.Intn(3)], Value: r.Intn(4)}
		}
	}
	switch r.Intn(3) {
	case 0:
		return stateful.PNot{P: randPred(r, depth-1)}
	case 1:
		return stateful.PAnd{L: randPred(r, depth-1), R: randPred(r, depth-1)}
	default:
		return stateful.POr{L: randPred(r, depth-1), R: randPred(r, depth-1)}
	}
}

// TestRoundTrip: parse(print(c)) prints identically to c, for random
// commands.
func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		c := randCmd(r, 3)
		src := c.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v (from %#v)", src, err, c)
		}
		if got := parsed.String(); got != src {
			t.Fatalf("round trip: %q -> %q", src, got)
		}
	}
}

// TestAppsRoundTrip: every application program round-trips through the
// concrete syntax.
func TestAppsRoundTrip(t *testing.T) {
	for _, a := range apps.All() {
		src := a.Prog.Cmd.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: Parse: %v", a.Name, err)
		}
		if got := parsed.String(); got != src {
			t.Fatalf("%s: round trip changed program:\n%s\n->\n%s", a.Name, src, got)
		}
	}
}

func TestLexer(t *testing.T) {
	toks, err := Lex("pt<-1; (1:1)=>(4:1)<state(0)<-2> + a!=3 & !b=4 | c=5* # comment\n true")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokKind{
		TokIdent, TokAssign, TokInt, TokSemi,
		TokLParen, TokInt, TokColon, TokInt, TokRParen, TokLink,
		TokLParen, TokInt, TokColon, TokInt, TokRParen,
		TokLAngle, TokIdent, TokLParen, TokInt, TokRParen, TokAssign, TokInt, TokRAngle,
		TokPlus, TokIdent, TokNeq, TokInt, TokAnd, TokNot, TokIdent, TokEq, TokInt,
		TokOr, TokIdent, TokEq, TokInt, TokStar, TokIdent, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d: %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"@", "a $ b", "pt <- ~1"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded", src)
		}
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := Lex("# full line\na=1 # trailing\n# another\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 { // a, =, 1, EOF
		t.Fatalf("tokens: %v", toks)
	}
}

// lexRef is the lexer before the punctuation table, kept as the oracle for
// what the table-driven one must produce on ASCII input: byte-at-a-time
// classification through unicode, a map literal per punctuation token.
func lexRef(src string) ([]Token, error) {
	var toks []Token
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
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && unicode.IsDigit(rune(src[j])) {
				j++
			}
			n, err := strconv.Atoi(src[i:j])
			if err != nil {
				return nil, err
			}
			toks = append(toks, Token{Kind: TokInt, Text: src[i:j], Int: n, Pos: i})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, Token{Kind: TokIdent, Text: src[i:j], Pos: i})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch {
			case two == "<-":
				toks = append(toks, Token{Kind: TokAssign, Text: two, Pos: i})
				i += 2
			case two == "=>":
				toks = append(toks, Token{Kind: TokLink, Text: two, Pos: i})
				i += 2
			case two == "!=":
				toks = append(toks, Token{Kind: TokNeq, Text: two, Pos: i})
				i += 2
			default:
				kind, ok := map[byte]TokKind{
					'(': TokLParen, ')': TokRParen, '[': TokLBracket, ']': TokRBracket,
					'<': TokLAngle, '>': TokRAngle, '=': TokEq, '!': TokNot,
					';': TokSemi, '+': TokPlus, '*': TokStar, '&': TokAnd,
					'|': TokOr, ':': TokColon, ',': TokComma,
				}[c]
				if !ok {
					return nil, fmt.Errorf("unexpected character %q at offset %d", c, i)
				}
				toks = append(toks, Token{Kind: kind, Text: string(c), Pos: i})
				i++
			}
		}
	}
	return append(toks, Token{Kind: TokEOF, Pos: len(src)}), nil
}

// lexedApps is every program family the repo ships, at the sizes the
// benchmark compiles.
func lexedApps() []apps.App {
	return append(apps.All(),
		apps.BandwidthCap(80), apps.BandwidthCap(200), apps.IDSFatTree(4), apps.BandwidthCap(2000), apps.IDSFatTree(10),
		apps.Ring(3), apps.WalledGarden(), apps.DistributedFirewall(),
		apps.FailoverDiamond(2).App, apps.FailoverWAN(4).App, apps.FailoverFatTree(4, 2).App)
}

// TestLexMatchesReference: on the rendered source of every application
// program, and on random commands, the lexer produces the reference
// lexer's tokens exactly — kind, text, value and position.
func TestLexMatchesReference(t *testing.T) {
	var srcs []string
	for _, a := range lexedApps() {
		srcs = append(srcs, a.Prog.Cmd.String())
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		srcs = append(srcs, randCmd(r, 3).String()+" # c\n")
	}
	for _, src := range srcs {
		want, err := lexRef(src)
		if err != nil {
			t.Fatalf("reference lexer: %v", err)
		}
		got, err := Lex(src)
		if err != nil {
			t.Fatalf("Lex: %v\n%.200s", err, src)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("tokens differ on %.200s", src)
		}
	}
}

// TestLexByteClasses pins what each of the 256 byte values is to the
// lexer, alone and inside an identifier: identifiers and integers are
// ASCII, and a byte >= 0x80 is an unexpected character at its offset
// wherever it stands outside a comment — not a letter when it happens to
// be a Latin-1 one (0xC0-0xFF read as a rune) and an error otherwise.
func TestLexByteClasses(t *testing.T) {
	const puncts = "()[]<>=!;+*&|:,"
	kinds := []TokKind{TokLParen, TokRParen, TokLBracket, TokRBracket, TokLAngle, TokRAngle, TokEq, TokNot,
		TokSemi, TokPlus, TokStar, TokAnd, TokOr, TokColon, TokComma}
	for b := 0; b < 256; b++ {
		c := byte(b)
		want := TokKind(-1) // rejected
		switch k := strings.IndexByte(puncts, c); {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '#':
			want = TokEOF // no token: the stream is just the end marker
		case '0' <= c && c <= '9':
			want = TokInt
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_':
			want = TokIdent
		case k >= 0:
			want = kinds[k]
		}
		toks, err := Lex(string([]byte{c}))
		switch {
		case want == -1:
			if err == nil || !strings.Contains(err.Error(), "unexpected character") || !strings.Contains(err.Error(), "offset 0") {
				t.Errorf("byte %#02x: tokens %v, error %v; want unexpected character at offset 0", c, toks, err)
			}
		case err != nil:
			t.Errorf("byte %#02x: %v", c, err)
		case want == TokEOF:
			if len(toks) != 1 {
				t.Errorf("byte %#02x: tokens %v, want none", c, toks)
			}
		case len(toks) != 2 || toks[0].Kind != want || toks[0].Text != string([]byte{c}) || toks[0].Pos != 0:
			t.Errorf("byte %#02x: tokens %v, want one %v", c, toks, want)
		}
		if c < 0x80 {
			continue
		}
		if _, err := Lex("ab" + string([]byte{c}) + "cd"); err == nil || !strings.Contains(err.Error(), "offset 2") {
			t.Errorf("byte %#02x inside an identifier: %v; want unexpected character at offset 2", c, err)
		}
		if toks, err := Lex("a # " + string([]byte{c}) + "\nb"); err != nil || len(toks) != 3 {
			t.Errorf("byte %#02x inside a comment: tokens %v, error %v", c, toks, err)
		}
	}
	if _, err := Parse("dst=H4 & na\xc3\xafve=1"); err == nil || !strings.Contains(err.Error(), "offset 11") {
		t.Errorf("UTF-8 identifier: %v; want unexpected character at offset 11", err)
	}
}

// TestLexAllocs is a count, not a timing: lexing cap-200's rendered
// source allocates the token slice and nothing per token.
func TestLexAllocs(t *testing.T) {
	src := apps.BandwidthCap(200).Prog.Cmd.String()
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Lex(src); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("Lex allocates %v times on %d bytes; at most 4 allowed", n, len(src))
	}
}
