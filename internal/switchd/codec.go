package switchd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/switchd/api"
)

// Hand-written codecs for the hot serving bodies: the connect, branch
// and disconnect requests and their success responses. Every request
// pays for these, so they neither reflect nor allocate scratch.
//
// Responses are appended into a pooled buffer and are byte-identical to
// encoding/json's indented Encoder output (two-space indent, trailing
// newline, HTML-escaped strings). Requests are parsed by a strict
// subset parser that only accepts the canonical shape — an object of
// known, non-repeated keys with printable ASCII strings and integers —
// in the form json.Marshal writes it, so the \u003e it writes for '>'
// in a connection string is read here too. Anything else (other
// escapes, unknown or repeated keys, null, floats, a body over the
// pooled buffer, a read error) goes to the strict encoding/json decoder
// exactly as before, so both paths give the same verdicts, values and
// error messages.

// maxBodyBytes caps a request body (the strict decoder's limit).
const maxBodyBytes = 1 << 20

// hotBufSize is the pooled buffer's size: a canonical hot body is a few
// hundred bytes even at fanout 32.
const hotBufSize = 4096

var hotBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, hotBufSize)
	return &b
}}

// jsonContentType is the shared Content-Type header value of hot
// responses; header values are never mutated in place, so one slice
// serves every response.
var jsonContentType = []string{"application/json"}

// decodeHot decodes a hot request body. parse is the canonical shape's
// hand-written parser; a body it declines is decoded by the strict
// encoding/json path. Like decodeBody it answers the error itself and
// reports whether the handler should go on.
func decodeHot[T any](w http.ResponseWriter, r *http.Request, parse func([]byte) (T, bool)) (T, bool) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, http.StatusMethodNotAllowed, api.CodeBadRequest, "POST required")
		var zero T
		return zero, false
	}
	bp := hotBufs.Get().(*[]byte)
	defer hotBufs.Put(bp)
	buf := (*bp)[:0]
	var err error
	for len(buf) < cap(buf) && err == nil {
		var n int
		n, err = r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
	}
	*bp = buf[:0]
	var rest io.Reader
	switch err {
	case io.EOF:
		if v, ok := parse(buf); ok {
			return v, true
		}
		rest = bytes.NewReader(buf)
	case nil: // larger than the buffer: the limit counts what was read
		rest = io.MultiReader(bytes.NewReader(buf), http.MaxBytesReader(w, r.Body, maxBodyBytes-int64(len(buf))))
	default:
		rest = io.MultiReader(bytes.NewReader(buf), errReader{err})
	}
	v := new(T)
	ok := decodeStrict(w, rest, v)
	return *v, ok
}

// errReader replays a body read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeBody decodes a POST body with the strict decoder: the cold
// endpoints' path, and the reference the hot decoders are tested
// against.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeErrorCode(w, http.StatusMethodNotAllowed, api.CodeBadRequest, "POST required")
		return false
	}
	return decodeStrict(w, http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// decodeStrict decodes body into v with encoding/json, rejecting
// unknown fields, and answers 400 on failure.
func decodeStrict(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErrorCode(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// respondHot writes a hot success response: the phase split so far in
// a Server-Timing header (set before the body, so it covers every phase
// up to the write itself), then v appended by enc into a pooled buffer.
// Encoding and write are timed as the respond phase, which the caller's
// deferred phaseTimer.observe picks up afterwards.
func respondHot[T any](w http.ResponseWriter, pt *phaseTimer, v T, enc func([]byte, T) []byte) {
	h := w.Header()
	if st := pt.serverTiming(); st != "" {
		h["Server-Timing"] = []string{st}
	}
	start := time.Now()
	bp := hotBufs.Get().(*[]byte)
	body := enc((*bp)[:0], v)
	h["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	*bp = body[:0]
	hotBufs.Put(bp)
	pt.add(phaseRespond, time.Since(start))
}

// appendConnectResponse appends v as the indented JSON encoder would.
func appendConnectResponse(dst []byte, v api.ConnectResponse) []byte {
	dst = append(dst, "{\n  \"session\": "...)
	dst = strconv.AppendUint(dst, v.Session, 10)
	dst = append(dst, ",\n  \"fabric\": "...)
	dst = strconv.AppendInt(dst, int64(v.Fabric), 10)
	return append(dst, "\n}\n"...)
}

// appendDisconnectResponse appends v as the indented JSON encoder would.
func appendDisconnectResponse(dst []byte, v api.DisconnectResponse) []byte {
	dst = append(dst, "{\n  \"released\": "...)
	dst = strconv.AppendUint(dst, v.Released, 10)
	return append(dst, "\n}\n"...)
}

// appendSessionInfo appends v as the indented JSON encoder would.
func appendSessionInfo(dst []byte, v api.SessionInfo) []byte {
	dst = append(dst, "{\n  \"session\": "...)
	dst = strconv.AppendUint(dst, v.ID, 10)
	dst = append(dst, ",\n  \"fabric\": "...)
	dst = strconv.AppendInt(dst, int64(v.Fabric), 10)
	dst = append(dst, ",\n  \"connection\": "...)
	dst = appendJSONString(dst, v.Conn)
	dst = append(dst, ",\n  \"fanout\": "...)
	dst = strconv.AppendInt(dst, int64(v.Fanout), 10)
	dst = append(dst, ",\n  \"branches\": "...)
	dst = strconv.AppendInt(dst, int64(v.Branches), 10)
	if v.Migrations != 0 {
		dst = append(dst, ",\n  \"migrations\": "...)
		dst = strconv.AppendInt(dst, int64(v.Migrations), 10)
	}
	return append(dst, "\n}\n"...)
}

// appendJSONString appends s as a JSON string with encoding/json's
// default HTML escaping. Printable ASCII — all a connection string ever
// holds — is escaped here; any other byte hands the whole string to
// encoding/json, whose escaping rules then apply unchanged.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '<':
			esc = `\u003c`
		case '>':
			esc = `\u003e`
		case '&':
			esc = `\u0026`
		default:
			continue
		}
		dst = append(append(dst, s[start:i]...), esc...)
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// parseConnectRequest parses the canonical ConnectRequest shape.
func parseConnectRequest(b []byte) (api.ConnectRequest, bool) {
	p := hotParser{b: b}
	var req api.ConnectRequest
	var conn bool
	ok := p.object(func(key []byte) bool {
		switch {
		case string(key) == "connection" && !conn:
			conn = true
			s, ok := p.str()
			req.Connection = text(s)
			return ok
		case string(key) == "fabric" && req.Fabric == nil:
			n, ok := p.int()
			f := int(n)
			req.Fabric = &f
			return ok
		}
		return false
	})
	return req, ok
}

// parseBranchRequest parses the canonical BranchRequest shape.
func parseBranchRequest(b []byte) (api.BranchRequest, bool) {
	p := hotParser{b: b}
	var req api.BranchRequest
	var session bool
	ok := p.object(func(key []byte) bool {
		switch {
		case string(key) == "session" && !session:
			session = true
			var ok bool
			req.Session, ok = p.uint()
			return ok
		case string(key) == "dests" && req.Dests == nil:
			req.Dests = []string{}
			return p.array(func() bool {
				s, ok := p.str()
				req.Dests = append(req.Dests, text(s))
				return ok
			})
		}
		return false
	})
	return req, ok
}

// parseDisconnectRequest parses the canonical DisconnectRequest shape.
func parseDisconnectRequest(b []byte) (api.DisconnectRequest, bool) {
	p := hotParser{b: b}
	var req api.DisconnectRequest
	var session bool
	ok := p.object(func(key []byte) bool {
		if string(key) != "session" || session {
			return false
		}
		session = true
		var ok bool
		req.Session, ok = p.uint()
		return ok
	})
	return req, ok
}

// hotParser scans the canonical subset of JSON the hot requests use.
// Every method reports false on anything outside that subset, sending
// the body to the strict decoder; like encoding/json's Decoder it stops
// at the end of the top-level object and ignores what follows.
type hotParser struct {
	b []byte
	i int
}

// ws consumes JSON whitespace.
func (p *hotParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next consumes whitespace and reports whether c comes next, consuming
// it if so.
func (p *hotParser) next(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses {"key": value, ...}; field parses the value of each
// key and reports whether the key is known and the value canonical.
func (p *hotParser) object(field func(key []byte) bool) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	for {
		key, ok := p.str()
		if !ok || !p.next(':') || !field(key) {
			return false
		}
		if p.next('}') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// array parses [elem, ...].
func (p *hotParser) array(elem func() bool) bool {
	if !p.next('[') {
		return false
	}
	if p.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.next(']') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// str parses a string of printable ASCII whose only escapes are
// \uXXXX escapes of printable ASCII — the form json.Marshal, and so the
// repo's client, gives '<', '>' and '&' — returning its raw contents
// (aliasing the body). text turns them into the string they denote.
func (p *hotParser) str() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		case c == '\\':
			if _, ok := asciiEscape(p.b[j:]); !ok {
				return nil, false
			}
			j += len(`\u0000`) - 1
		case c < 0x20 || c > 0x7e:
			return nil, false
		}
	}
	return nil, false
}

// asciiEscape decodes the \uXXXX escape at the start of b if it names a
// printable ASCII character.
func asciiEscape(b []byte) (byte, bool) {
	if len(b) < len(`\u0000`) || b[1] != 'u' {
		return 0, false
	}
	var r int
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			r = r<<4 | int(c-'0')
		case 'a' <= c && c <= 'f':
			r = r<<4 | int(c-'a'+10)
		case 'A' <= c && c <= 'F':
			r = r<<4 | int(c-'A'+10)
		default:
			return 0, false
		}
	}
	if r < 0x20 || r > 0x7e {
		return 0, false
	}
	return byte(r), true
}

// text returns the string a raw value from str denotes.
func text(raw []byte) string {
	i := bytes.IndexByte(raw, '\\')
	if i < 0 {
		return string(raw)
	}
	var stack [128]byte
	out := append(stack[:0], raw[:i]...)
	for i < len(raw) {
		if raw[i] == '\\' {
			c, _ := asciiEscape(raw[i:])
			out = append(out, c)
			i += len(`\u0000`)
			continue
		}
		out = append(out, raw[i])
		i++
	}
	return string(out)
}

// uint parses a JSON integer without sign, fraction or exponent, of at
// most 18 digits (so it fits any Go integer type used here).
func (p *hotParser) uint() (uint64, bool) {
	p.ws()
	start := p.i
	var n uint64
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		n = n*10 + uint64(p.b[p.i]-'0')
		p.i++
	}
	digits := p.i - start
	if digits == 0 || digits > 18 || (digits > 1 && p.b[start] == '0') {
		return 0, false
	}
	return n, true
}

// int parses an optionally negative uint.
func (p *hotParser) int() (int64, bool) {
	neg := p.next('-')
	if neg && p.i < len(p.b) && (p.b[p.i] < '0' || p.b[p.i] > '9') {
		return 0, false
	}
	n, ok := p.uint()
	if neg {
		return -int64(n), ok
	}
	return int64(n), ok
}
