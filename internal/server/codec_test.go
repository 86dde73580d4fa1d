package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"uniqopt/internal/value"
)

// refDecode is the decoder this package used before it had its own:
// encoding/json with UseNumber, one value from the payload. rest is what
// followed that value.
func refDecode(payload []byte, v any) (rest []byte, err error) {
	r := bytes.NewReader(payload)
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return nil, err
	}
	buffered, _ := io.ReadAll(dec.Buffered())
	unread, _ := io.ReadAll(r)
	return append(buffered, unread...), nil
}

// refScalar maps what encoding/json made of one binding or cell to what
// the frame decoder makes of it.
func refScalar(v any) any {
	switch x := v.(type) {
	case json.Number:
		if n, err := x.Int64(); err == nil {
			return n
		}
		return badArg(fmt.Sprintf("non-integer number %q", x.String()))
	case []any, map[string]any:
		return badArg(fmt.Sprintf("unsupported value type %T", v))
	}
	return v
}

func hasBadArg(vs ...any) bool {
	for _, v := range vs {
		if _, bad := v.(badArg); bad {
			return true
		}
	}
	return false
}

// diffDecode decodes payload into ref with encoding/json and into got
// with the frame decoder and requires the two to agree: both refuse, or
// both accept and — once normalize has mapped ref's json.Numbers — the
// structs are deeply equal. The documented departures are the only
// payloads the frame decoder may refuse alone; departs tells whether ref
// holds one. It reports whether both accepted.
func diffDecode(t *testing.T, payload []byte, ref, got any, normalize func() (departs bool)) bool {
	t.Helper()
	rest, refErr := refDecode(payload, ref)
	gotErr := decodeFrame(payload, got)
	if refErr != nil {
		if gotErr == nil {
			t.Fatalf("frame decoder accepted what encoding/json refused (%v):\n%q\n%+v", refErr, payload, got)
		}
		return false
	}
	if departs := normalize(); departs || len(bytes.Trim(rest, " \t\r\n")) > 0 {
		if gotErr == nil {
			t.Fatalf("frame decoder accepted a documented refusal:\n%q", payload)
		}
		return false
	}
	if gotErr != nil {
		t.Fatalf("frame decoder refused what encoding/json accepted: %v\n%q", gotErr, payload)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("decoders disagree on %q\nencoding/json: %#v\nframe decoder: %#v", payload, ref, got)
	}
	return true
}

// diffEncode requires the frame encoder's bytes for v to be
// json.Marshal's.
func diffEncode(t *testing.T, v any) []byte {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, v); err != nil {
		t.Fatalf("WriteFrame(%+v): %v", v, err)
	}
	if got := buf.Bytes()[4:]; !bytes.Equal(got, want) {
		t.Fatalf("encoders disagree\njson.Marshal:  %s\nframe encoder: %s", want, got)
	}
	return want
}

func diffRequest(t *testing.T, payload []byte) {
	var ref, got Request
	normalize := func() bool {
		for k, v := range ref.Args {
			ref.Args[k] = refScalar(v)
		}
		return false
	}
	if !diffDecode(t, payload, &ref, &got, normalize) {
		return
	}
	unbindable := false
	for _, v := range got.Args {
		unbindable = unbindable || hasBadArg(v)
	}
	if !unbindable {
		diffEncode(t, &got)
		return
	}
	// Nothing the protocol can bind: the server refuses the request and
	// the encoder refuses to produce it.
	if checkArgs(got.Args) == nil {
		t.Fatalf("checkArgs passed %#v", got.Args)
	}
	if err := WriteFrame(io.Discard, &got); err == nil {
		t.Fatalf("WriteFrame encoded %#v", got.Args)
	}
}

func diffResponse(t *testing.T, payload []byte) {
	var ref, got Response
	normalize := func() (departs bool) {
		for _, row := range ref.Rows {
			for j, v := range row {
				row[j] = refScalar(v)
			}
			departs = departs || hasBadArg(row...)
		}
		return departs
	}
	if diffDecode(t, payload, &ref, &got, normalize) {
		diffEncode(t, &got)
	}
}

// diffStrings puts s, arbitrary bytes, wherever the frames carry a
// string and requires both encoders to agree on it and both decoders to
// agree on what was encoded. The row encoder the session writes answers
// with gets s as a string cell, and must write json.Marshal's bytes for
// the boxed cell.
func diffStrings(t *testing.T, s string) {
	req := &Request{ID: 1, Cmd: Command(s), SQL: s, Name: s, Args: map[string]any{s: s, "k": s}}
	diffRequest(t, diffEncode(t, req))
	resp := &Response{ID: 1, Err: &WireError{Code: s, Msg: s, Resource: s}, Server: s, Status: s,
		Tables: []string{s, ""}, Columns: []string{s}, Rows: [][]any{{s, nil}, nil, {}},
		Rewrite: []WireRewrite{{Rule: s, Description: s}}, Explain: s}
	diffResponse(t, diffEncode(t, resp))
	rows := []value.Row{{value.String_(s)}}
	want, err := json.Marshal(value.BoxRows(rows, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := appendValueRows(nil, rows); !bytes.Equal(got, want) {
		t.Fatalf("row encoders disagree on a string cell\njson.Marshal:    %s\nappendValueRows: %s", want, got)
	}
}

var fuzzSeeds = []string{
	// Every command.
	`{"id":1,"cmd":"HELLO","max_rows":1000,"mem_budget":1048576}`,
	`{"id":2,"cmd":"PREPARE","sql":"SELECT S.SNO FROM S WHERE S.SNO = :N","name":"q"}`,
	`{"id":3,"cmd":"EXEC","name":"q","args":{"B":true,"N":7,"NIL":null,"S":"x"}}`,
	`{"id":4,"cmd":"QUERY","sql":"SELECT DISTINCT S.SNO FROM S","baseline":true}`,
	`{"id":5,"cmd":"EXPLAIN","sql":"SELECT S.SNO FROM S","analyze":true}`,
	`{"id":6,"cmd":"CLOSE"}`,
	// Every response kind: HELLO, result, INSERT ack, EXPLAIN, error.
	`{"id":1,"ok":true,"proto":1,"server":"uniqoptd","session":3,"status":"ready","tables":["P","S"],"max_rows":5000000,"mem_budget":268435456,"catalog_version":2}`,
	`{"id":3,"ok":true,"columns":["SNO","CITY","OK"],"rows":[[7,"city-0",true],[8,null,false]],"rewrites":[{"rule":"eliminate-distinct","description":"DISTINCT is redundant"}],"catalog_version":2,"reprepared":true}`,
	`{"id":4,"ok":true,"rows_affected":1,"catalog_version":2}`,
	`{"id":5,"ok":true,"rewrites":[],"catalog_version":2,"explain":"Project\n  Scan(S)\n"}`,
	`{"id":6,"ok":false,"err":{"code":"budget","msg":"row budget exceeded","resource":"rows","limit":10,"used":11}}`,
	// Strings: escapes, a surrogate pair, lone surrogates, HTML, U+2028, raw invalid UTF-8.
	`{"id":1,"cmd":"QUERY","sql":"a\"b\\c\/d\b\f\n\r\t\u0041\u00e9\u2028\u2029 <>&"}`,
	`{"id":1,"cmd":"QUERY","sql":"\ud83d\ude00 \ud83d \ude00 \ud83dA \ud83d\u0041 \uD83D\uDE00"}`,
	"{\"id\":1,\"cmd\":\"QUERY\",\"sql\":\"\xff\xc3\x28 \xe2\x80\xa8 \xf0\x9f\x98\x80\",\"args\":{\"\xff\":\"\xfe\"}}",
	"{\"id\":1,\"cmd\":\"QUERY\",\"sql\":\"tab\there\"}",
	`{"id":1,"cmd":"QUERY","sql":"bad \x escape"}`,
	`{"id":1,"cmd":"QUERY","sql":"bad \u12g4 escape"}`,
	// Numbers.
	`{"id":18446744073709551615,"cmd":"EXEC","args":{"MAX":9223372036854775807,"MIN":-9223372036854775808,"Z":-0}}`,
	`{"id":18446744073709551616,"cmd":"EXEC"}`,
	`{"id":-1,"cmd":"EXEC"}`,
	`{"id":1,"cmd":"EXEC","args":{"OVER":9223372036854775808,"UNDER":-9223372036854775809}}`,
	`{"id":1,"cmd":"EXEC","args":{"F":1.5}}`,
	`{"id":1,"cmd":"EXEC","args":{"E":1e3}}`,
	`{"id":1,"cmd":"EXEC","args":{"L":01}}`,
	`{"id":1,"cmd":"EXEC","max_rows":1.0}`,
	`{"id":1,"cmd":"EXEC","max_rows":-}`,
	`{"id":1,"ok":true,"rows":[[1.5]]}`,
	`{"id":1,"ok":true,"rows":[[1e3],[9223372036854775808]]}`,
	`{"id":1,"ok":true,"proto":9223372036854775808}`,
	// Nested binding and cell values.
	`{"id":1,"cmd":"EXEC","args":{"A":[1,[2,{"x":null}]],"O":{"k":"v"}}}`,
	`{"id":1,"ok":true,"rows":[[[1]],[{"a":1}]]}`,
	// Unknown fields, duplicate keys, keys in another case, escaped keys.
	`{"id":1,"future":{"a":[1,2,{"b":"c"}],"d":1.5e-3},"cmd":"CLOSE","also":null}`,
	`{"id":1,"id":2,"cmd":"EXEC","args":{"N":1,"M":2},"args":{"N":3},"cmd":"CLOSE"}`,
	`{"id":1,"cmd":"EXEC","args":{"N":1},"args":null,"name":"a","name":null}`,
	`{"ID":1,"Cmd":"EXEC","NAME":"q","Max_Rows":5,"id":2,"\u017fql":"folded","o\u212a":true}`,
	"{\"\u017fql\":\"raw fold\",\"o\u212a\":true,\"\u00efd\":3}",
	`{"id":1,"ok":true,"tables":["a","b"],"tables":[null],"rows":[[1,2],[3]],"rows":[[null],null,[]],"rewrites":[{"rule":"a","description":"b"},{"rule":"c"}],"rewrites":[{"rule":"d"}],"rewrites":[null,{}]}`,
	`{"id":1,"ok":false,"err":{"code":"a","limit":1},"err":{"msg":"b","Used":2},"ERR":{"code":"c"}}`,
	`{"id":1,"ok":true,"err":{"code":"a"},"err":null,"tables":[],"columns":null,"rows":[]}`,
	// Type mismatches.
	`{"id":"1","cmd":"EXEC"}`,
	`{"id":1,"cmd":5}`,
	`{"id":1,"cmd":"EXEC","args":[1]}`,
	`{"id":1,"cmd":"EXEC","baseline":1}`,
	`{"id":1,"ok":"true"}`,
	`{"id":1,"ok":true,"rows":[1]}`,
	`{"id":1,"ok":true,"tables":[1]}`,
	`{"id":1,"ok":true,"err":"x"}`,
	`{"id":1,"ok":true,"rewrites":[1]}`,
	// Whitespace, other top-level values, trailing data, truncation.
	" \t\r\n{ \"id\" : 1 , \"cmd\" : \"EXEC\" , \"args\" : { \"N\" : 1 } } \n",
	`null`,
	` null `,
	`[]`,
	`"x"`,
	`7`,
	``,
	`   `,
	`{"id":1,"cmd":"CLOSE"} x`,
	`{"id":1,"cmd":"CLOSE"}{"id":2}`,
	"{\"id\":1,\"cmd\":\"CLOSE\"}\x00",
	`{"id":1,"cmd":"CLOSE"`,
	`{"id":1,"cmd":"CLO`,
	`{"id":1,}`,
	`{,"id":1}`,
	`{"id":1 "cmd":"x"}`,
	`{"id":1,"args":{"a":1,}}`,
	`{"id":1,"ok":true,"rows":[[1,]]}`,
	`{"id":1,"ok":tru}`,
	`{"id":1,"ok":nulll}`,
	`{"id" 1}`,
}

// FuzzFrameCodec is the codec's specification: encoding/json. For any
// payload, and for each frame type, the frame decoder and encoding/json
// both refuse it or both decode it to equal structs, and re-encoding
// what was decoded gives the same bytes from the frame encoder and
// json.Marshal. The only payloads the frame decoder may refuse alone
// are the departures protocol.go lists. The payload's bytes are also
// used as a string in every string position of both frames.
func FuzzFrameCodec(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		diffRequest(t, payload)
		diffResponse(t, payload)
		diffStrings(t, string(payload))
	})
}

// TestValueRowsEncodeAsBoxed: the session's row encoder writes, from
// the engine's cells, the bytes appendRows writes for the same rows
// boxed — and those are json.Marshal's — at the edges of every kind.
func TestValueRowsEncodeAsBoxed(t *testing.T) {
	var cells []value.Value
	for _, n := range []int64{math.MinInt64, -1, 0, 255, 256, math.MaxInt64} {
		cells = append(cells, value.Int(n))
	}
	cells = append(cells, value.Bool(true), value.Bool(false), value.Null)
	for _, s := range []string{"", "\x00", "\xff\xfe invalid", "<>&", "line\u2028separator\u2029"} {
		cells = append(cells, value.String_(s))
	}
	for _, width := range []int{1, 3, len(cells)} {
		var rows []value.Row
		for i := 0; i+width <= len(cells); i += width {
			rows = append(rows, value.Row(cells[i:i+width]))
		}
		for _, rows := range [][]value.Row{nil, rows[:1], rows} {
			boxed := value.BoxRows(rows, width)
			want, err := appendRows(nil, boxed)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendValueRows(nil, rows); !bytes.Equal(got, want) {
				t.Fatalf("width %d, %d rows\nappendRows:      %s\nappendValueRows: %s", width, len(rows), want, got)
			}
			// No rows is no "rows" field: neither encoder is asked for one.
			if marshaled, _ := json.Marshal(boxed); len(rows) > 0 && !bytes.Equal(want, marshaled) {
				t.Fatalf("width %d: appendRows wrote %s, json.Marshal %s", width, want, marshaled)
			}
		}
	}
}

// TestFrameDepthLimit: nesting is refused exactly where encoding/json
// refuses it, in a skipped field, in a binding and unclosed. (Kept out of
// the fuzz corpus: inputs this long slow the fuzzer to a crawl.)
func TestFrameDepthLimit(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, payload := range []string{
		`{"x":` + nest(maxDepth-1) + `}`,
		`{"x":` + nest(maxDepth) + `}`,
		`{"id":1,"args":{"A":` + nest(maxDepth-2) + `}}`,
		`{"id":1,"args":{"A":` + nest(maxDepth-1) + `}}`,
		strings.Repeat("[", maxDepth+1),
		`{"x":` + strings.Repeat(`{"y":`, 2*maxDepth),
	} {
		diffRequest(t, []byte(payload))
		diffResponse(t, []byte(payload))
	}
	var req Request
	if err := decodeFrame([]byte(`{"x":`+nest(maxDepth-1)+`}`), &req); err != nil {
		t.Fatalf("depth %d refused: %v", maxDepth, err)
	}
	if err := decodeFrame([]byte(`{"x":`+nest(maxDepth)+`}`), &req); err == nil {
		t.Fatalf("depth %d accepted", maxDepth+1)
	}
}

// TestFrameDecodeOwnsItsStrings: nothing ReadFrame returns may point
// into the frame buffer, which goes back to the pool.
func TestFrameDecodeOwnsItsStrings(t *testing.T) {
	payload := []byte(`{"id":9,"ok":true,"server":"srv","tables":["T"],"columns":["C"],"rows":[["cell",1]],` +
		`"rewrites":[{"rule":"r","description":"d"}],"err":{"code":"c","msg":"m"},"explain":"e\n"}`)
	var got, want Response
	if err := decodeFrame(payload, &got); err != nil {
		t.Fatal(err)
	}
	if err := decodeFrame(bytes.Clone(payload), &want); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 'X'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded response changed with its buffer: %+v", got)
	}

	payload = []byte(`{"id":9,"cmd":"EXEC","name":"stmt","sql":"text","args":{"KEY":"value"}}`)
	var req, wantReq Request
	if err := decodeFrame(payload, &req); err != nil {
		t.Fatal(err)
	}
	if err := decodeFrame(bytes.Clone(payload), &wantReq); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 'X'
	}
	if !reflect.DeepEqual(req, wantReq) {
		t.Fatalf("decoded request changed with its buffer: %+v", req)
	}
}

// TestFrameHeaderReservesNothing: a header claiming MaxFrame followed by
// ten bytes costs the reader a chunk, not 16 MiB.
func TestFrameHeaderReservesNothing(t *testing.T) {
	var frame [14]byte
	binary.BigEndian.PutUint32(frame[:], MaxFrame)
	copy(frame[4:], `{"id":1,"c`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req Request
	err := ReadFrame(bytes.NewReader(frame[:]), &req)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a MaxFrame header with a 10-byte payload allocated %d bytes", got)
	}
	// A header alone ends the same way.
	if err := ReadFrame(bytes.NewReader(frame[:4]), &req); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header-only err = %v, want io.ErrUnexpectedEOF", err)
	}
	if err := ReadFrame(bytes.NewReader(nil), &req); err != io.EOF {
		t.Fatalf("empty stream err = %v, want io.EOF", err)
	}
}

// writeCounter counts Write calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFrameLargeAndOneWrite: a frame many chunks long survives a reader
// that returns it in pieces, and any frame is exactly one Write.
func TestFrameLargeAndOneWrite(t *testing.T) {
	big := strings.Repeat("plan line <&>\n", 3*frameChunk/14)
	for _, in := range []*Response{
		{ID: 1, OK: true, Explain: big},
		{ID: 2, OK: true, Columns: []string{"A"}, Rows: [][]any{{int64(math.MinInt64)}, {"s"}, {nil}, {true}}},
	} {
		var w writeCounter
		if err := WriteFrame(&w, in); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Fatalf("frame took %d writes, want 1", w.writes)
		}
		if n := binary.BigEndian.Uint32(w.Bytes()); int(n) != w.Len()-4 {
			t.Fatalf("length prefix %d on a %d-byte payload", n, w.Len()-4)
		}
		var out Response
		if err := ReadFrame(iotest.OneByteReader(&w.Buffer), &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&out, in) {
			t.Fatalf("round trip changed the response (id %d)", in.ID)
		}
	}
}

// TestFrameOnlyFrames: the codec has no fallback for other types.
func TestFrameOnlyFrames(t *testing.T) {
	if err := WriteFrame(io.Discard, map[string]any{"id": 1}); err == nil {
		t.Fatal("WriteFrame encoded a map")
	}
	if err := WriteFrame(io.Discard, Request{}); err == nil {
		t.Fatal("WriteFrame encoded a Request value")
	}
	if err := WriteFrame(io.Discard, &Request{Args: map[string]any{"F": 1.5}}); err == nil {
		t.Fatal("WriteFrame encoded a float binding")
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Request{ID: 1, Cmd: CmdClose}); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := ReadFrame(&buf, &m); err == nil {
		t.Fatal("ReadFrame decoded into a map")
	}
}

// BenchmarkFrameCodec sends a wire_oltp-sized EXEC and its 8-row answer
// through WriteFrame and ReadFrame.
func BenchmarkFrameCodec(b *testing.B) {
	req := &Request{ID: 12345, Cmd: CmdExec, Name: "parts_of", Args: map[string]any{"N": int64(137)}}
	resp := &Response{ID: 12345, OK: true, Columns: []string{"PNO", "PNAME", "COLOR", "QTY"}, CatalogVersion: 4,
		Rewrite: []WireRewrite{{Rule: "eliminate-distinct", Description: "DISTINCT is redundant: the key of PARTS is bound"}}}
	for i := 0; i < 8; i++ {
		resp.Rows = append(resp.Rows, []any{int64(1000 + i), fmt.Sprintf("part-%d", i), "RED", int64(i * 100)})
	}
	var reqFrame, respFrame bytes.Buffer
	if err := errors.Join(WriteFrame(&reqFrame, req), WriteFrame(&respFrame, resp)); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := errors.Join(WriteFrame(io.Discard, req), WriteFrame(io.Discard, resp)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		var r1, r2 bytes.Reader
		for i := 0; i < b.N; i++ {
			r1.Reset(reqFrame.Bytes())
			r2.Reset(respFrame.Bytes())
			var req Request
			var resp Response
			if err := errors.Join(ReadFrame(&r1, &req), ReadFrame(&r2, &resp)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
