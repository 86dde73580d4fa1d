package server

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"uniqopt/internal/value"
)

// The decoding half of the frame codec: one pass over a frame's payload
// (two over a result's rows, see rows) that fills a *Request or
// *Response directly. It accepts what
// encoding/json (with UseNumber) accepted into the same struct, to the
// same result — whitespace, escapes and surrogate pairs, keys matched
// ignoring case, unknown fields skipped, a repeated key decoded over
// what the first left, null leaving a scalar alone — and refuses what
// it refused, apart from the departures listed in protocol.go.
// FuzzFrameCodec holds it to that against encoding/json.

// badArg stands in Request.Args for a well-formed value the protocol
// has no SQL type for — a number that is not an int64, a nested array
// or object — and says what was wrong with it. The frame around it is
// sound, so the refusal belongs to the request (checkArgs) and not to
// the connection.
type badArg string

// maxDepth is encoding/json's nesting limit; it also bounds skip's
// recursion on a hostile frame.
const maxDepth = 10000

// decoder is a cursor over one payload. Its error is sticky: the first
// failure is recorded and the cursor jumps to the end of the input,
// where every later step finds nothing left to do.
type decoder struct {
	b     []byte
	i     int
	depth int
	err   error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("server: frame JSON at offset %d: %s", d.i, fmt.Sprintf(format, args...))
	}
	d.i = len(d.b)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		d.i++
	}
	return 0
}

// open consumes the bracket that starts an array or object.
func (d *decoder) open(bracket byte) bool {
	if d.peek() != bracket {
		d.fail("want %q", bracket)
		return false
	}
	d.i++
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeded max depth")
		return false
	}
	return true
}

// more steps to the next element of the array or object that ends
// with end: it consumes the comma before a later element, or the
// closing bracket, and reports whether an element follows.
func (d *decoder) more(end byte, first bool) bool {
	c := d.peek()
	switch {
	case d.err != nil:
		return false
	case c == end:
		d.i++
		d.depth--
		return false
	case first:
		return true
	case c == ',':
		d.i++
		return true
	}
	d.fail("want ',' or %q", end)
	return false
}

// colon consumes the colon after an object key.
func (d *decoder) colon() {
	if d.peek() != ':' {
		d.fail("want ':'")
		return
	}
	d.i++
}

func (d *decoder) literal(lit string) {
	if len(d.b)-d.i < len(lit) || string(d.b[d.i:d.i+len(lit)]) != lit {
		d.fail("invalid literal")
		return
	}
	d.i += len(lit)
}

// null consumes a null if one is next.
func (d *decoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

// rawString validates the string literal at the cursor against the JSON
// grammar and returns the bytes between its quotes; plain reports that
// they are ASCII without escapes, and so are the string's value as
// they stand.
func (d *decoder) rawString() (raw []byte, plain bool) {
	if d.peek() != '"' {
		d.fail("want string")
		return nil, true
	}
	d.i++
	start := d.i
	plain = true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], plain
		case c < ' ':
			d.fail("control character in string")
			return nil, true
		case c >= utf8.RuneSelf:
			plain = false
		case c == '\\':
			plain = false
			if d.i++; d.i == len(d.b) {
				break
			}
			switch d.b[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(d.b)-d.i < 5 || hex4(d.b[d.i+1:]) < 0 {
					d.fail("invalid \\u escape")
					return nil, true
				}
				d.i += 4
			default:
				d.fail("invalid escape")
				return nil, true
			}
		}
	}
	d.fail("unterminated string")
	return nil, true
}

// hex4 decodes the four hex digits b starts with, -1 if any is not one.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape decodes the character that starts at raw[i] of a string
// literal rawString has validated, and returns it with the index after
// it: an escape resolved, a surrogate pair joined, a lone surrogate or
// an invalid UTF-8 byte read as U+FFFD.
func unescape(raw []byte, i int) (r rune, next int) {
	c := raw[i]
	switch {
	case c < utf8.RuneSelf && c != '\\':
		return rune(c), i + 1
	case c >= utf8.RuneSelf:
		r, size := utf8.DecodeRune(raw[i:])
		return r, i + size
	}
	switch c = raw[i+1]; c {
	case 'b':
		return '\b', i + 2
	case 'f':
		return '\f', i + 2
	case 'n':
		return '\n', i + 2
	case 'r':
		return '\r', i + 2
	case 't':
		return '\t', i + 2
	case 'u':
		r, next = hex4(raw[i+2:]), i+6
		if utf16.IsSurrogate(r) {
			low := rune(-1)
			if len(raw)-next >= 6 && raw[next] == '\\' && raw[next+1] == 'u' {
				low = hex4(raw[next+2:])
			}
			if r = utf16.DecodeRune(r, low); r != utf8.RuneError {
				next += 6
			}
		}
		return r, next
	}
	return rune(c), i + 2 // " \ /
}

// unquote appends the value of a string literal rawString has
// validated.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		var r rune
		r, i = unescape(raw, i)
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

// unquotedLen is len(unquote(nil, raw)).
func unquotedLen(raw []byte) int {
	n := 0
	for i := 0; i < len(raw); {
		var r rune
		r, i = unescape(raw, i)
		n += utf8.RuneLen(r)
	}
	return n
}

// str decodes a string value into a string of its own: nothing decoded
// aliases the frame buffer.
func (d *decoder) str() string {
	raw, plain := d.rawString()
	if plain {
		return string(raw)
	}
	return string(unquote(make([]byte, 0, len(raw)), raw))
}

// field reads an object key and its colon and returns the key's index
// in names — matched exactly, or else ignoring case, as encoding/json
// matches struct fields — or -1 for a key the struct does not have.
func (d *decoder) field(names []string) int {
	key, plain := d.rawString()
	if !plain {
		key = unquote(nil, key)
	}
	d.colon()
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if strings.EqualFold(string(key), name) {
			return i
		}
	}
	return -1
}

// digits consumes a run of decimal digits and reports whether there
// was one.
func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// at reports whether the next byte is c.
func (d *decoder) at(c byte) bool {
	return d.i < len(d.b) && d.b[d.i] == c
}

// number validates the number literal at the cursor against the JSON
// grammar and returns it; integer reports that it has neither fraction
// nor exponent.
func (d *decoder) number() (tok []byte, integer bool) {
	d.peek()
	start := d.i
	if d.at('-') {
		d.i++
	}
	ok := d.at('0')
	if ok {
		d.i++
	} else {
		ok = d.digits()
	}
	integer = true
	if ok && d.at('.') {
		d.i++
		integer, ok = false, d.digits()
	}
	if ok && (d.at('e') || d.at('E')) {
		d.i++
		if d.at('+') || d.at('-') {
			d.i++
		}
		integer, ok = false, d.digits()
	}
	if !ok {
		d.fail("invalid number")
		return nil, false
	}
	return d.b[start:d.i], integer
}

// parseUint is strconv.ParseUint(tok, 10, 64) for a literal that number
// has validated as an integer; ok is false when it does not fit.
func parseUint(tok []byte) (u uint64, ok bool) {
	if tok[0] == '-' {
		return 0, false
	}
	for _, c := range tok {
		digit := uint64(c - '0')
		if u > (math.MaxUint64-digit)/10 {
			return 0, false
		}
		u = u*10 + digit
	}
	return u, true
}

// parseInt is parseUint for strconv.ParseInt.
func parseInt(tok []byte) (n int64, ok bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	u, ok := parseUint(tok)
	if neg {
		return -int64(u), ok && u <= 1<<63
	}
	return int64(u), ok && u < 1<<63
}

// The struct-field decoders. A null leaves a scalar field alone and
// makes a map, pointer or slice nil; a value of another type than the
// field's is an error.

// integer reads a number for one of the structs' number fields, all of
// them integers; nil once the decoder has failed.
func (d *decoder) integer() []byte {
	tok, integer := d.number()
	if d.err == nil && !integer {
		d.fail("number %s is not an integer", tok)
	}
	if d.err != nil {
		return nil
	}
	return tok
}

func (d *decoder) int(p *int64) {
	if d.null() {
		return
	}
	if tok := d.integer(); tok != nil {
		n, ok := parseInt(tok)
		if !ok {
			d.fail("number %s overflows the field", tok)
			return
		}
		*p = n
	}
}

func (d *decoder) uint(p *uint64) {
	if d.null() {
		return
	}
	if tok := d.integer(); tok != nil {
		u, ok := parseUint(tok)
		if !ok {
			d.fail("number %s does not fit the unsigned field", tok)
			return
		}
		*p = u
	}
}

func (d *decoder) bool(p *bool) {
	switch d.peek() {
	case 'n':
		d.literal("null")
	case 't':
		if d.literal("true"); d.err == nil {
			*p = true
		}
	case 'f':
		if d.literal("false"); d.err == nil {
			*p = false
		}
	default:
		d.fail("want bool")
	}
}

func (d *decoder) string(p *string) {
	if d.null() {
		return
	}
	if s := d.str(); d.err == nil {
		*p = s
	}
}

// command is string for the cmd field, without a copy for a command the
// protocol knows.
func (d *decoder) command(p *Command) {
	if d.null() {
		return
	}
	raw, _ := d.rawString()
	if d.err != nil {
		return
	}
	for _, c := range commands {
		if string(raw) == string(c.cmd) {
			*p = c.cmd
			return
		}
	}
	*p = Command(unquote(nil, raw))
}

// element makes s[i] addressable for an array decoder. encoding/json
// decodes a repeated key's array into the slice the first occurrence
// left, element by element and without clearing it, and so does this:
// a null or a partial object in the repeat keeps what it finds there.
func element[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	if i < cap(s) {
		return s[:i+1]
	}
	var zero T
	return append(s[:cap(s)], zero)[:i+1]
}

// closeArray gives an array decoder's slice its final length; an empty
// JSON array is an empty slice, not a nil one.
func closeArray[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

func (d *decoder) strings(p *[]string) {
	if d.null() {
		*p = nil
		return
	}
	if !d.open('[') {
		return
	}
	s, n := *p, 0
	for ; d.more(']', n == 0); n++ {
		s = element(s, n)
		d.string(&s[n])
	}
	*p = closeArray(s, n)
}

// scalar decodes one binding or cell: nil, bool, string, int64, or a
// badArg for anything else that is well-formed.
func (d *decoder) scalar() any {
	switch d.peek() {
	case 'n':
		d.literal("null")
		return nil
	case 't':
		d.literal("true")
		return true
	case 'f':
		d.literal("false")
		return false
	case '"':
		return d.str()
	case '[':
		d.skip()
		return badArg("unsupported value type []interface {}")
	case '{':
		d.skip()
		return badArg("unsupported value type map[string]interface {}")
	}
	tok, integer := d.number()
	if integer {
		if n, ok := parseInt(tok); ok {
			return n
		}
	}
	return badArg(fmt.Sprintf("non-integer number %q", tok))
}

func (d *decoder) args(p *map[string]any) {
	if d.null() {
		*p = nil
		return
	}
	if !d.open('{') {
		return
	}
	if *p == nil {
		*p = map[string]any{}
	}
	for first := true; d.more('}', first); first = false {
		k := d.str()
		d.colon()
		if v := d.scalar(); d.err == nil {
			(*p)[k] = v
		}
	}
}

// rowSlabs are the arrays one answer decodes into, and the counts that
// size them exactly: the rows, every row's cells, and through a boxer
// the integers that take a slot and the strings, whose bytes lie in
// text.
type rowSlabs struct {
	nrows, ncells, nints, nstrs, nbytes int

	rows  [][]any
	cells []any
	text  []byte
	box   value.Boxer
}

// rows decodes the result matrix in two passes over its bytes: the
// first validates it and counts what its slabs need, the second decodes
// into slabs of exactly that size, so an answer costs the same few
// allocations however many rows it has. Each row is a capacity-clipped
// window of one array of cells: an append to one cannot reach the next.
// A repeated "rows" key decodes afresh, to the value encoding/json gets
// by decoding it over what the first occurrence left.
func (d *decoder) rows(p *[][]any) {
	if d.null() {
		*p = nil
		return
	}
	var s rowSlabs
	start := d.i
	if d.walkRows(&s, false); d.err != nil {
		return
	}
	s.rows = make([][]any, 0, s.nrows)
	s.cells = make([]any, 0, s.ncells)
	s.text = make([]byte, 0, s.nbytes)
	s.box = value.NewBoxer(s.nints, s.nstrs)
	d.i = start
	d.walkRows(&s, true)
	*p = s.rows
}

// walkRows walks the rows array at the cursor: counting into s, or with
// fill appending to its slabs.
func (d *decoder) walkRows(s *rowSlabs, fill bool) {
	if !d.open('[') {
		return
	}
	for n := 0; d.more(']', n == 0); n++ {
		s.nrows++
		var row []any // a null row stays nil
		if !d.null() {
			if !d.open('[') {
				return
			}
			first := len(s.cells)
			for m := 0; d.more(']', m == 0); m++ {
				s.ncells++
				cell := d.cell(s, fill)
				if bad, ok := cell.(badArg); ok {
					d.fail("row %d col %d: %s", n, m, string(bad))
				}
				if fill {
					s.cells = append(s.cells, cell)
				}
			}
			row = s.cells[first:len(s.cells):len(s.cells)]
		}
		if fill {
			s.rows = append(s.rows, row)
		}
	}
}

// cell decodes one cell: scalar's value, with an integer that takes a
// slot or a string boxed through s — only counted when not filling.
func (d *decoder) cell(s *rowSlabs, fill bool) any {
	switch d.peek() {
	case '"':
		raw, plain := d.rawString()
		if !fill {
			s.nstrs++
			if plain {
				s.nbytes += len(raw)
			} else {
				s.nbytes += unquotedLen(raw)
			}
			return nil
		}
		start := len(s.text)
		if plain {
			s.text = append(s.text, raw...)
		} else {
			s.text = unquote(s.text, raw)
		}
		return s.box.Bytes(s.text[start:])
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		tok, integer := d.number()
		n, ok := int64(0), false
		if integer {
			n, ok = parseInt(tok)
		}
		switch {
		case !ok:
			return badArg(fmt.Sprintf("non-integer number %q", tok))
		case fill:
			return s.box.Int(n)
		case value.BoxTakesSlot(n):
			s.nints++
		}
		return nil
	}
	return d.scalar()
}

var wireErrorFields = []string{"code", "msg", "resource", "limit", "used"}

func (d *decoder) wireError(p **WireError) {
	if d.null() {
		*p = nil
		return
	}
	if !d.open('{') {
		return
	}
	if *p == nil {
		*p = &WireError{}
	}
	e := *p
	for first := true; d.more('}', first); first = false {
		switch d.field(wireErrorFields) {
		case 0:
			d.string(&e.Code)
		case 1:
			d.string(&e.Msg)
		case 2:
			d.string(&e.Resource)
		case 3:
			d.int(&e.Limit)
		case 4:
			d.int(&e.Used)
		default:
			d.skip()
		}
	}
}

var wireRewriteFields = []string{"rule", "description"}

func (d *decoder) rewrites(p *[]WireRewrite) {
	if d.null() {
		*p = nil
		return
	}
	if !d.open('[') {
		return
	}
	s, n := *p, 0
	for ; d.more(']', n == 0); n++ {
		s = element(s, n)
		if d.null() {
			continue
		}
		if !d.open('{') {
			return
		}
		for first := true; d.more('}', first); first = false {
			switch d.field(wireRewriteFields) {
			case 0:
				d.string(&s[n].Rule)
			case 1:
				d.string(&s[n].Description)
			default:
				d.skip()
			}
		}
	}
	*p = closeArray(s, n)
}

// skip validates and discards one value of any shape: an unknown
// field's, or a nested binding's.
func (d *decoder) skip() {
	switch d.peek() {
	case '{':
		d.open('{')
		for first := true; d.more('}', first); first = false {
			d.field(nil)
			d.skip()
		}
	case '[':
		d.open('[')
		for first := true; d.more(']', first); first = false {
			d.skip()
		}
	case '"':
		d.rawString()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		d.number()
	}
}

var requestFields = []string{"id", "cmd", "sql", "name", "args", "baseline", "analyze", "max_rows", "mem_budget"}

func (d *decoder) request(r *Request) {
	if d.null() || !d.open('{') {
		return
	}
	for first := true; d.more('}', first); first = false {
		switch d.field(requestFields) {
		case 0:
			d.uint(&r.ID)
		case 1:
			d.command(&r.Cmd)
		case 2:
			d.string(&r.SQL)
		case 3:
			d.string(&r.Name)
		case 4:
			d.args(&r.Args)
		case 5:
			d.bool(&r.Baseline)
		case 6:
			d.bool(&r.Analyze)
		case 7:
			d.int(&r.MaxRows)
		case 8:
			d.int(&r.MemBudget)
		default:
			d.skip()
		}
	}
}

var responseFields = []string{"id", "ok", "err", "proto", "server", "session", "status", "tables",
	"max_rows", "mem_budget", "columns", "rows", "rewrites", "rows_affected", "catalog_version",
	"reprepared", "explain"}

func (d *decoder) response(r *Response) {
	if d.null() || !d.open('{') {
		return
	}
	for first := true; d.more('}', first); first = false {
		switch d.field(responseFields) {
		case 0:
			d.uint(&r.ID)
		case 1:
			d.bool(&r.OK)
		case 2:
			d.wireError(&r.Err)
		case 3:
			proto := int64(r.Proto)
			if d.int(&proto); int64(int(proto)) != proto {
				d.fail("number %d does not fit the field", proto)
			}
			r.Proto = int(proto)
		case 4:
			d.string(&r.Server)
		case 5:
			d.uint(&r.Session)
		case 6:
			d.string(&r.Status)
		case 7:
			d.strings(&r.Tables)
		case 8:
			d.int(&r.MaxRows)
		case 9:
			d.int(&r.MemBudget)
		case 10:
			d.strings(&r.Columns)
		case 11:
			d.rows(&r.Rows)
		case 12:
			d.rewrites(&r.Rewrite)
		case 13:
			d.int(&r.RowsAffected)
		case 14:
			d.uint(&r.CatalogVersion)
		case 15:
			d.bool(&r.Reprepared)
		case 16:
			d.string(&r.Explain)
		default:
			d.skip()
		}
	}
}

// decodeFrame decodes a payload's one JSON value into v, a *Request or
// a *Response.
func decodeFrame(payload []byte, v any) error {
	d := decoder{b: payload}
	switch v := v.(type) {
	case *Request:
		d.request(v)
	case *Response:
		d.response(v)
	default:
		return fmt.Errorf("server: decode frame: %T is neither *Request nor *Response", v)
	}
	if d.peek(); d.err == nil && d.i < len(d.b) {
		d.fail("data after the frame's value")
	}
	return d.err
}
