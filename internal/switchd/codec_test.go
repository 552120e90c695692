package switchd

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/switchd/api"
)

// encodeIndented is what the hot encoders replaced: json.Encoder with a
// two-space indent.
func encodeIndented(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// randomJSONString mixes realistic connection strings with every class
// of byte encoding/json escapes: HTML characters, quotes, backslashes,
// control characters, multi-byte and invalid UTF-8, and U+2028/2029.
func randomJSONString(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		var b strings.Builder
		b.WriteString("0.0>")
		for i := 0; i < 1+rng.Intn(33); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strings.Repeat("1", 1+rng.Intn(3)) + ".0")
		}
		return b.String()
	}
	pieces := []string{"a", "Z", "9", ".", ">", "<", "&", "\"", "\\", "/", "\n", "\t", "\r", "\b", "\f",
		"\x00", "\x1f", "\x7f", "é", "λ", "\u2028", "\u2029", "\xff", "\xe2\x80", "😀", " "}
	var b strings.Builder
	for i := 0; i < rng.Intn(12); i++ {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// TestHotEncodersMatchJSON is the property test for the hand-written
// response encoders: over random values they are byte-identical to the
// indented json.Encoder they replaced.
func TestHotEncodersMatchJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ints := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxInt64 - rng.Intn(3)
		case 2:
			return math.MinInt64 + rng.Intn(3)
		}
		return rng.Intn(2001) - 1000
	}
	for i := 0; i < 5000; i++ {
		cr := api.ConnectResponse{Session: rng.Uint64() >> uint(rng.Intn(64)), Fabric: ints()}
		if got, want := string(appendConnectResponse(nil, cr)), encodeIndented(t, cr); got != want {
			t.Fatalf("ConnectResponse %+v:\n got  %q\n want %q", cr, got, want)
		}
		dr := api.DisconnectResponse{Released: rng.Uint64() >> uint(rng.Intn(64))}
		if got, want := string(appendDisconnectResponse(nil, dr)), encodeIndented(t, dr); got != want {
			t.Fatalf("DisconnectResponse %+v:\n got  %q\n want %q", dr, got, want)
		}
		si := api.SessionInfo{ID: rng.Uint64(), Fabric: ints(), Conn: randomJSONString(rng),
			Fanout: ints(), Branches: ints()}
		if rng.Intn(2) == 0 {
			si.Migrations = ints()
		}
		if got, want := string(appendSessionInfo(nil, si)), encodeIndented(t, si); got != want {
			t.Fatalf("SessionInfo %+v:\n got  %q\n want %q", si, got, want)
		}
	}
	// The pinned wire shape of a branch answer.
	si := api.SessionInfo{ID: 1, Fabric: 0, Conn: "0.0>5.0,9.0", Fanout: 2, Branches: 1}
	want := "{\n  \"session\": 1,\n  \"fabric\": 0,\n  \"connection\": \"0.0\\u003e5.0,9.0\",\n  \"fanout\": 2,\n  \"branches\": 1\n}\n"
	if got := string(appendSessionInfo(nil, si)); got != want {
		t.Fatalf("branch answer = %q, want %q", got, want)
	}
}

// checkHotDecode runs body through the hot decoder and the strict one
// and requires the same verdict, the same decoded value and the same
// error answer (status and body, message included).
func checkHotDecode[T any](t *testing.T, body []byte, parse func([]byte) (T, bool)) {
	t.Helper()
	hotW := httptest.NewRecorder()
	hot, hotOK := decodeHot(hotW, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), parse)
	strictW := httptest.NewRecorder()
	var strict T
	strictOK := decodeBody(strictW, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &strict)
	if hotOK != strictOK {
		t.Fatalf("body %q: hot verdict %v, strict %v (%s)", body, hotOK, strictOK, strictW.Body.Bytes())
	}
	if hotOK && !reflect.DeepEqual(hot, strict) {
		t.Fatalf("body %q: hot decoded %+v, strict %+v", body, hot, strict)
	}
	if hotW.Code != strictW.Code || hotW.Body.String() != strictW.Body.String() {
		t.Fatalf("body %q: hot answered %d %q, strict %d %q",
			body, hotW.Code, hotW.Body.Bytes(), strictW.Code, strictW.Body.Bytes())
	}
}

// The three fuzz targets hold each hot request decoder to the strict
// encoding/json path: same verdict, value and error message on any
// body. Seed corpora live under testdata/fuzz/<target>.

func FuzzDecodeConnectRequest(f *testing.F) {
	f.Add([]byte(`{"connection": "0.0>5.0,9.0", "fabric": -1}`))
	f.Fuzz(func(t *testing.T, body []byte) { checkHotDecode(t, body, parseConnectRequest) })
}

func FuzzDecodeBranchRequest(f *testing.F) {
	f.Add([]byte(`{"session": 7, "dests": ["12.0"]}`))
	f.Fuzz(func(t *testing.T, body []byte) { checkHotDecode(t, body, parseBranchRequest) })
}

func FuzzDecodeDisconnectRequest(f *testing.F) {
	f.Add([]byte(`{"session": 7}`))
	f.Fuzz(func(t *testing.T, body []byte) { checkHotDecode(t, body, parseDisconnectRequest) })
}

// TestHotDecodeCanonical pins that canonical bodies take the hand-written
// path (they decode without the strict decoder) and decode correctly.
func TestHotDecodeCanonical(t *testing.T) {
	fabric := 2
	if got, ok := parseConnectRequest([]byte(" {\"connection\" : \"0.0>5.0,9.0\",\n\"fabric\":2}trailing")); !ok ||
		!reflect.DeepEqual(got, api.ConnectRequest{Connection: "0.0>5.0,9.0", Fabric: &fabric}) {
		t.Fatalf("connect = %+v, %v", got, ok)
	}
	if got, ok := parseConnectRequest([]byte(`{"connection":"0.0\u003E5.0\u002c9.0"}`)); !ok ||
		!reflect.DeepEqual(got, api.ConnectRequest{Connection: "0.0>5.0,9.0"}) {
		t.Fatalf("escaped connect = %+v, %v", got, ok)
	}
	if got, ok := parseBranchRequest([]byte(`{"dests":["12.0", "3.1"],"session":18}`)); !ok ||
		!reflect.DeepEqual(got, api.BranchRequest{Session: 18, Dests: []string{"12.0", "3.1"}}) {
		t.Fatalf("branch = %+v, %v", got, ok)
	}
	if got, ok := parseDisconnectRequest([]byte(`{"session":123456789012345678}`)); !ok || got.Session != 123456789012345678 {
		t.Fatalf("disconnect = %+v, %v", got, ok)
	}
	for _, body := range []string{`{"session":1,"session":2}`, `{"Session":1}`, `{"session":1.0}`,
		`{"session":01}`, `{"session":-1}`, `{"session":null}`, `{"session":"1"}`, `{"session":1234567890123456789}`} {
		if _, ok := parseDisconnectRequest([]byte(body)); ok {
			t.Fatalf("hot parser accepted non-canonical %s", body)
		}
		checkHotDecode(t, []byte(body), parseDisconnectRequest)
	}
}

// TestClientBodiesTakeHotPath encodes requests exactly as the repo's
// client does (json.Marshal, which writes '>' as \u003e) for random
// connections of both benchmark shapes, and requires every body to take
// the hand-written path and decode to what encoding/json decodes.
func TestClientBodiesTakeHotPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	slot := func() string { return strconv.Itoa(rng.Intn(256)) + "." + strconv.Itoa(rng.Intn(4)) }
	for i := 0; i < 2000; i++ {
		dests := make([]string, 1+rng.Intn(32))
		for j := range dests {
			dests[j] = slot()
		}
		conn := slot() + ">" + strings.Join(dests, ",")
		fabric := rng.Intn(3) - 1
		connect := api.ConnectRequest{Connection: conn}
		if fabric >= 0 {
			connect.Fabric = &fabric
		}
		checkClientBody(t, connect, parseConnectRequest)
		checkClientBody(t, api.BranchRequest{Session: rng.Uint64() >> 8, Dests: dests}, parseBranchRequest)
		checkClientBody(t, api.DisconnectRequest{Session: rng.Uint64() >> 8}, parseDisconnectRequest)
	}
}

func checkClientBody[T any](t *testing.T, req T, parse func([]byte) (T, bool)) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := parse(body)
	if !ok {
		t.Fatalf("client body %s fell back to the strict decoder", body)
	}
	var want T
	if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("client body %s: hot %+v, encoding/json %+v (%v)", body, got, want, err)
	}
}

// brokenBody yields its bytes, then fails.
type brokenBody struct {
	data []byte
	err  error
}

func (b *brokenBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, b.err
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func (*brokenBody) Close() error { return nil }

// TestHotDecodeLargeAndBrokenBodies covers the paths past the pooled
// buffer: bodies larger than it, bodies over the 1 MiB limit, and read
// errors mid-body all answer exactly as the strict decoder does.
func TestHotDecodeLargeAndBrokenBodies(t *testing.T) {
	obj := `{"connection":"0.0>5.0"}`
	for _, body := range []string{
		obj + strings.Repeat(" ", 2*hotBufSize),
		strings.Repeat(" ", 2*hotBufSize) + obj,
		strings.Repeat(" ", maxBodyBytes+10) + obj,
		obj + strings.Repeat(" ", maxBodyBytes+10),
		`{"connection":"` + strings.Repeat("1", maxBodyBytes) + `"}`,
	} {
		checkHotDecode(t, []byte(body), parseConnectRequest)
	}

	readErr := errors.New("connection reset")
	for _, data := range []string{obj, obj[:10], strings.Repeat(" ", hotBufSize+3) + obj, ""} {
		serve := func(decode func(http.ResponseWriter, *http.Request) bool) (bool, *httptest.ResponseRecorder) {
			req := httptest.NewRequest(http.MethodPost, "/", nil)
			req.Body = &brokenBody{data: []byte(data), err: readErr}
			w := httptest.NewRecorder()
			return decode(w, req), w
		}
		hotOK, hotW := serve(func(w http.ResponseWriter, r *http.Request) bool {
			_, ok := decodeHot(w, r, parseConnectRequest)
			return ok
		})
		strictOK, strictW := serve(func(w http.ResponseWriter, r *http.Request) bool {
			var v api.ConnectRequest
			return decodeBody(w, r, &v)
		})
		if hotOK != strictOK || hotW.Body.String() != strictW.Body.String() {
			t.Fatalf("broken body %q: hot %v %q, strict %v %q", data, hotOK, hotW.Body.Bytes(), strictOK, strictW.Body.Bytes())
		}
	}
}
