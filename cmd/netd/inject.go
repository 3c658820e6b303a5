package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"eventnet/internal/dataplane"
)

// The inject path: wire bytes -> pooled flat batch -> engine inbox, with
// no map and no reflection in between. The body is read into a pooled
// buffer, one strict scanner walks it once and writes each packet
// straight into a dataplane.Batch (host resolved and values checked
// against the int32 domain as they are parsed), and the response is
// appended with strconv. There is no second decoder to fall back to: a
// body the scanner refuses is a 400.
//
// Accepted grammar (a subset of JSON; FuzzInjectDecode holds it against
// encoding/json and lists where the two differ):
//
//	/inject       = packet
//	/inject-batch = { "packets" : [ packet , ... ] }
//	packet        = { "host" : string , "fields" : fields , "count" : int }
//	fields        = { string : int , ... }
//	string        = " bytes " — no backslash escapes, no control bytes,
//	                well-formed UTF-8, at most 64 bytes
//	int           = -?(0|[1-9][0-9]*), within int64
//
// with JSON whitespace between tokens, the keys of an object in any
// order, each at most once and spelled exactly, every key optional
// (a missing host is the unknown host ""), and nothing but whitespace
// after the value. A field value outside int32 or an unknown host
// rejects that packet; anything else above rejects the request. count
// below 1 means 1; a count above 1 admits that many copies, copy j
// carrying the daemon's next packet number + j in field "id" (31 bits,
// wrapping) so they stay distinguishable.

// Limits of the request bodies.
const (
	// maxBodyBytes bounds the body of every POST; longer is a 413.
	maxBodyBytes = 1 << 20
	// maxInjectPackets bounds what one inject request may expand to
	// (Σ count over its packets, rejected ones included): the engine's
	// delivery-log bound, so {"count":1e9} cannot allocate without limit.
	maxInjectPackets = 1 << 16
	// maxAppParam bounds a built-in app's cap, diameter and cycles, which
	// size what apps.ByName builds before the topology check can refuse
	// it: a ring's build is quadratic in its diameter, a failover app's
	// memory linear in its cycles, and a cap or cycles count this large
	// already has more states than the compiler enumerates
	// (stateful.MaxStates).
	maxAppParam = 4096
	// maxNameBytes bounds a host or field name.
	maxNameBytes = 64
	// maxFieldNames bounds the distinct field names of one request: the
	// batch's name table is scanned linearly and outlives the request.
	maxFieldNames = 256
)

// decodeError is a body the scanner refuses. strict marks the refusals
// that are this decoder's own rule, where encoding/json would (or might)
// have accepted the body.
type decodeError struct {
	off    int
	msg    string
	strict bool
}

func (e *decodeError) Error() string { return "offset " + strconv.Itoa(e.off) + ": " + e.msg }

// reject is one packet of a request that was not admitted.
type reject struct {
	index int // position in the request's "packets"
	msg   string
}

// ingest is the per-request state of the inject path, pooled.
type ingest struct {
	body    []byte
	pos     int
	out     []byte
	b       *dataplane.Batch
	seen    [maxFieldNames / 64]uint64 // field ids seen in the packet being decoded
	total   int64                      // Σ count so far
	rejects []reject
}

var ingests = sync.Pool{New: func() any { return new(ingest) }}

var idName = []byte("id")

// syntax refuses a body that is not of the accepted shape. JSON's null
// in place of a value is the one such body encoding/json accepts.
func (in *ingest) syntax(msg string) error {
	return &decodeError{off: in.pos, msg: msg, strict: bytes.HasPrefix(in.body[in.pos:], []byte("null"))}
}

func (in *ingest) refuse(msg string) error {
	return &decodeError{off: in.pos, msg: msg, strict: true}
}

// peek skips whitespace and returns the next byte (0 at the end).
func (in *ingest) peek() byte {
	for in.pos < len(in.body) {
		switch c := in.body[in.pos]; c {
		case ' ', '\t', '\n', '\r':
			in.pos++
		default:
			return c
		}
	}
	return 0
}

func (in *ingest) expect(c byte) error {
	if in.peek() != c {
		return in.syntax("expected " + strconv.QuoteRune(rune(c)))
	}
	in.pos++
	return nil
}

// open consumes the opening byte of an object or array and reports
// whether it has a first element (consuming the closing byte when not).
func (in *ingest) open(opening, closing byte) (bool, error) {
	if err := in.expect(opening); err != nil {
		return false, err
	}
	if in.peek() == closing {
		in.pos++
		return false, nil
	}
	return true, nil
}

// more is called after an element of an object or array: true on a
// comma, false on the closing byte, an error on anything else.
func (in *ingest) more(closing byte) (bool, error) {
	switch in.peek() {
	case ',':
		in.pos++
		return true, nil
	case closing:
		in.pos++
		return false, nil
	}
	return false, in.syntax("expected , or " + strconv.QuoteRune(rune(closing)))
}

// str scans a string and returns its bytes, a window of the body.
func (in *ingest) str() ([]byte, error) {
	if err := in.expect('"'); err != nil {
		return nil, err
	}
	start, high := in.pos, byte(0)
	for ; in.pos < len(in.body); in.pos++ {
		switch c := in.body[in.pos]; {
		case c == '"':
			s := in.body[start:in.pos]
			if len(s) > maxNameBytes {
				return nil, in.refuse("name longer than " + strconv.Itoa(maxNameBytes) + " bytes")
			}
			if high >= utf8.RuneSelf && !utf8.Valid(s) {
				return nil, in.refuse("name is not valid UTF-8")
			}
			in.pos++
			return s, nil
		case c == '\\':
			return nil, in.refuse("escape sequences are not accepted")
		case c < 0x20:
			return nil, in.syntax("control character in string")
		default:
			high |= c
		}
	}
	return nil, in.syntax("unterminated string")
}

// integer scans a JSON integer that fits int64.
func (in *ingest) integer() (int64, error) {
	in.peek()
	i, neg := in.pos, false
	if i < len(in.body) && in.body[i] == '-' {
		neg = true
		i++
	}
	start, n := i, uint64(0)
	for ; i < len(in.body) && '0' <= in.body[i] && in.body[i] <= '9'; i++ {
		if i-start == 19 { // 19 digits always fit uint64
			return 0, in.syntax("integer out of range")
		}
		n = n*10 + uint64(in.body[i]-'0')
	}
	switch {
	case i == start:
		return 0, in.syntax("expected an integer")
	case in.body[start] == '0' && i-start > 1:
		return 0, in.syntax("leading zero")
	case i < len(in.body) && (in.body[i] == '.' || in.body[i] == 'e' || in.body[i] == 'E'):
		return 0, in.syntax("not an integer")
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if n > limit {
		return 0, in.syntax("integer out of range")
	}
	in.pos = i
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

// fieldID resolves a field name in the batch's table, refusing the
// request when that table would pass maxFieldNames.
func (in *ingest) fieldID(name []byte) (int32, error) {
	id := in.b.FieldID(name)
	if id >= maxFieldNames {
		return 0, in.refuse("more than " + strconv.Itoa(maxFieldNames) + " distinct field names")
	}
	return id, nil
}

// fields decodes a "fields" object into the batch's open record. why is
// set when a value lies outside the int32 domain, which rejects the
// packet, not the request.
func (in *ingest) fields() (why string, err error) {
	in.seen = [len(in.seen)]uint64{}
	again, err := in.open('{', '}')
	for ; again; again, err = in.more('}') {
		name, err := in.str()
		if err != nil {
			return "", err
		}
		id, err := in.fieldID(name)
		if err != nil {
			return "", err
		}
		if in.seen[id>>6]&(1<<(id&63)) != 0 {
			return "", in.refuse("duplicate field " + strconv.Quote(string(name)))
		}
		in.seen[id>>6] |= 1 << (id & 63)
		if err := in.expect(':'); err != nil {
			return "", err
		}
		v, err := in.integer()
		if err != nil {
			return "", err
		}
		if v != int64(int32(v)) {
			if why == "" {
				why = fmt.Sprintf("dataplane: header field %q value %d outside the int32 flat-value domain", name, v)
			}
		} else {
			in.b.Field(id, int32(v))
		}
	}
	return why, err
}

// packet decodes one packet object and commits it to the batch, or
// records why it was rejected. nextID numbers count-expansions.
func (in *ingest) packet(index int, nextID *atomic.Int64) error {
	const hostKey, fieldsKey, countKey = 1, 2, 4
	var host []byte
	count, why, have := int64(1), "", 0
	again, err := in.open('{', '}')
	for ; again; again, err = in.more('}') {
		key, err := in.str()
		if err != nil {
			return err
		}
		if err := in.expect(':'); err != nil {
			return err
		}
		which := 0
		switch string(key) {
		case "host":
			which = hostKey
			host, err = in.str()
		case "fields":
			which = fieldsKey
			why, err = in.fields()
		case "count":
			which = countKey
			count, err = in.integer()
		default:
			return in.refuse("unknown key " + strconv.Quote(string(key)))
		}
		if err != nil {
			return err
		}
		if have&which != 0 {
			return in.refuse("duplicate key " + strconv.Quote(string(key)))
		}
		have |= which
	}
	if err != nil {
		return err
	}
	count = max(count, 1)
	// count alone first: it may be anywhere in int64, and the sum must
	// not overflow.
	if count > maxInjectPackets || in.total+count > maxInjectPackets {
		return in.refuse("request expands to more than " + strconv.Itoa(maxInjectPackets) + " packets")
	}
	in.total += count
	hi, ok := in.b.Host(host)
	if !ok {
		why = "dataplane: unknown host " + strconv.Quote(string(host))
	}
	if why != "" {
		in.b.Abort()
		in.rejects = append(in.rejects, reject{index: index, msg: why})
		return nil
	}
	if count == 1 {
		in.b.Commit(hi, 1)
		return nil
	}
	id, err := in.fieldID(idName)
	if err != nil {
		return err
	}
	first := nextID.Add(count) - count + 1
	in.b.CommitNumbered(hi, int32(count), id, int32(first&math.MaxInt32))
	return nil
}

// end checks that only whitespace follows the decoded value.
func (in *ingest) end() error {
	if in.peek() != 0 || in.pos != len(in.body) {
		return in.syntax("trailing data after the request")
	}
	return nil
}

// batch decodes an /inject-batch body; packets is the length of its
// "packets" array.
func (in *ingest) batch(nextID *atomic.Int64) (packets int, err error) {
	have := false
	again, err := in.open('{', '}')
	for ; again; again, err = in.more('}') {
		key, err := in.str()
		if err != nil {
			return 0, err
		}
		if string(key) != "packets" {
			return 0, in.refuse("unknown key " + strconv.Quote(string(key)))
		}
		if have {
			return 0, in.refuse(`duplicate key "packets"`)
		}
		have = true
		if err := in.expect(':'); err != nil {
			return 0, err
		}
		another, err := in.open('[', ']')
		for ; another; another, err = in.more(']') {
			if err := in.packet(packets, nextID); err != nil {
				return 0, err
			}
			packets++
		}
		if err != nil {
			return 0, err
		}
	}
	if err != nil {
		return 0, err
	}
	return packets, in.end()
}

// begin reads the request body and takes a batch; false when it has
// already answered the request.
func (in *ingest) begin(w http.ResponseWriter, r *http.Request, s *server) bool {
	in.pos, in.total, in.rejects = 0, 0, in.rejects[:0]
	if err := in.read(r.Body); err != nil {
		if tooLarge(err) {
			writeRaw(w, http.StatusRequestEntityTooLarge, tooLargeBody)
		} else {
			in.fail(w, http.StatusBadRequest, "bad request: reading body: "+err.Error())
		}
		return false
	}
	eng := s.c.Engine()
	if eng == nil {
		in.fail(w, http.StatusBadRequest, "ctrl: no program loaded")
		return false
	}
	in.b = eng.NewBatch()
	return true
}

// read fills in.body from the request, reusing its capacity.
func (in *ingest) read(body io.Reader) error {
	buf := in.body[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			in.body = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// submit hands the filled batch to the engine; false when the engine's
// inbox was full and the request has been answered 429.
func (in *ingest) submit(w http.ResponseWriter) bool {
	err := in.b.Submit()
	in.b = nil
	if err != nil {
		w.Header()["Retry-After"] = retryAfter
		in.fail(w, http.StatusTooManyRequests, err.Error())
	}
	return err == nil
}

// release returns the request state (and an unsubmitted batch) to
// their pools.
func (in *ingest) release() {
	if in.b != nil {
		in.b.Release()
		in.b = nil
	}
	ingests.Put(in)
}

// fail answers with the JSON error envelope.
func (in *ingest) fail(w http.ResponseWriter, code int, msg string) {
	in.out = appendJSONString(append(in.out[:0], `{"error":`...), msg)
	in.out = append(in.out, "}\n"...)
	writeRaw(w, code, in.out)
}

func (s *server) handleInject(w http.ResponseWriter, r *http.Request) {
	in := ingests.Get().(*ingest)
	defer in.release()
	if !in.begin(w, r, s) {
		return
	}
	err := in.packet(0, &s.nextID)
	if err == nil {
		err = in.end()
	}
	switch {
	case err != nil:
		in.fail(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	case len(in.rejects) > 0:
		in.fail(w, http.StatusBadRequest, in.rejects[0].msg)
		return
	}
	injected := in.b.Packets()
	if !in.submit(w) {
		return
	}
	in.out = strconv.AppendInt(append(in.out[:0], `{"injected":`...), int64(injected), 10)
	in.out = append(in.out, "}\n"...)
	writeRaw(w, http.StatusOK, in.out)
}

// handleInjectBatch admits a batch at one engine boundary. Partial-batch
// semantics, like the engine's: a bad packet is reported in "rejected"
// with its index in the request's "packets" and the rest are admitted;
// the request fails (400) only when none was.
func (s *server) handleInjectBatch(w http.ResponseWriter, r *http.Request) {
	in := ingests.Get().(*ingest)
	defer in.release()
	if !in.begin(w, r, s) {
		return
	}
	packets, err := in.batch(&s.nextID)
	switch {
	case err != nil:
		in.fail(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	case packets == 0:
		in.fail(w, http.StatusBadRequest, "empty batch")
		return
	}
	injected := in.b.Packets()
	if !in.submit(w) {
		return
	}
	out := strconv.AppendInt(append(in.out[:0], `{"injected":`...), int64(injected), 10)
	out = append(out, `,"rejected":`...)
	if len(in.rejects) == 0 {
		out = append(out, "null"...)
	} else {
		for i, rj := range in.rejects {
			sep := byte(',')
			if i == 0 {
				sep = '['
			}
			out = append(out, sep)
			out = strconv.AppendInt(append(out, `{"index":`...), int64(rj.index), 10)
			out = appendJSONString(append(out, `,"error":`...), rj.msg)
			out = append(out, '}')
		}
		out = append(out, ']')
	}
	in.out = append(out, "}\n"...)
	code := http.StatusOK
	if injected == 0 {
		code = http.StatusBadRequest
	}
	writeRaw(w, code, in.out)
}

// tooLargeBody is the 413 answer of every POST.
var tooLargeBody = []byte(fmt.Sprintf(`{"error":"request body exceeds %d bytes","limit_bytes":%d}`+"\n", maxBodyBytes, maxBodyBytes))

// tooLarge reports whether a body read ran past maxBodyBytes.
func tooLarge(err error) bool {
	var e *http.MaxBytesError
	return errors.As(err, &e)
}

// limitBody bounds the request body of a POST handler.
func limitBody(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h(w, r)
	}
}

var (
	jsonContentType = []string{"application/json"}
	retryAfter      = []string{"1"} // seconds; boundaries turn in microseconds, a held supervisor may not
)

// writeRaw writes an already encoded JSON response.
func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(body)
}

// appendJSONString appends s as a JSON string literal.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&15])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
