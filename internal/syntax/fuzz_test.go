package syntax

import (
	"regexp"
	"strconv"
	"testing"
)

// byteChooser makes randCmd's choices from the bytes of a fuzz input, one
// byte a choice, so that a mutated byte is a mutated subtree; an exhausted
// input chooses 0 and the depth bound ends the recursion.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

var errOffset = regexp.MustCompile(`offset (\d+)`)

// FuzzParseRoundTrip holds the printer and the parser against each other
// on both kinds of input a daemon sees. Generated: the bytes drive
// randCmd (the first one picks the depth), and the command's rendering
// equals the reference renderer's, parses, and prints back unchanged —
// the rendering is a cache key and the parser's input. Raw: the bytes
// are the source text; Parse returns, it does not panic, and what it
// rejects it locates by a byte offset inside the input (with a line, for
// an out-of-domain literal); what it accepts is printed in a form that
// is itself a fixed point. The corpus (testdata/fuzz/FuzzParseRoundTrip)
// has the paper's firewall, every operator and precedence corner of the
// grammar, and one input per error site of the lexer and the parser.
func FuzzParseRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		gen := &byteChooser{b: data}
		c := randCmd(gen, gen.Intn(6))
		text := c.String()
		if ref := stringRef(c); text != ref {
			t.Fatalf("generated command renders %q, the reference renderer %q", text, ref)
		}
		parsed, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q), a rendering: %v", text, err)
		}
		if got := parsed.String(); got != text {
			t.Fatalf("round trip of a rendering: %q -> %q", text, got)
		}

		src := string(data)
		parsed, err = Parse(src)
		if err != nil {
			m := errOffset.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("Parse(%q): error %q names no offset", src, err)
			}
			if at, _ := strconv.Atoi(m[1]); at > len(src) {
				t.Fatalf("Parse(%q): error %q points past the %d-byte input", src, err, len(src))
			}
			return
		}
		text = parsed.String()
		if ref := stringRef(parsed); text != ref {
			t.Fatalf("Parse(%q) renders %q, the reference renderer %q", src, text, ref)
		}
		again, err := Parse(text)
		if err != nil || again.String() != text {
			t.Fatalf("Parse(%q) prints %q, which parses to %v (error %v)", src, text, again, err)
		}
	})
}
