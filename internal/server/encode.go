package server

import (
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"uniqopt/internal/value"
)

// The encoding half of the frame codec: appendRequest and
// appendResponse append exactly the bytes json.Marshal produces for the
// same struct — field order, omitempty, sorted args keys, string
// escaping. FuzzFrameCodec holds them to that against encoding/json.

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Marshal does
// with HTML escaping on: <, > and & as \u00XX, U+2028/U+2029 escaped,
// an invalid UTF-8 byte as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendSep opens an array or object before its element 0 and
// separates the later ones.
func appendSep(b []byte, open byte, i int) []byte {
	if i == 0 {
		return append(b, open)
	}
	return append(b, ',')
}

// The append*Field helpers write `,"name":value` unless the value is
// empty: every field they serve is omitempty and follows another.

func appendStringField(b []byte, name, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, name...), s)
}

func appendIntField(b []byte, name string, n int64) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, name...), n, 10)
}

func appendUintField(b []byte, name string, n uint64) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendUint(append(b, name...), n, 10)
}

func appendTrueField(b []byte, name string, v bool) []byte {
	if !v {
		return b
	}
	return append(append(b, name...), "true"...)
}

func appendStringsField(b []byte, name string, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	b = append(b, name...)
	for i, s := range ss {
		b = appendString(appendSep(b, '[', i), s)
	}
	return append(b, ']')
}

// appendScalar appends one host-variable binding or result cell: null,
// a bool, a string or an integer.
func appendScalar(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case int64:
		return strconv.AppendInt(b, x, 10), nil
	case int:
		return strconv.AppendInt(b, int64(x), 10), nil
	case string:
		return appendString(b, x), nil
	case bool:
		return strconv.AppendBool(b, x), nil
	}
	return b, fmt.Errorf("unsupported value type %T", v)
}

// appendArgs appends the bindings object with its keys sorted, as
// json.Marshal orders a map.
func appendArgs(b []byte, args map[string]any) ([]byte, error) {
	var few [8]string
	keys := few[:0]
	for k := range args {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		b = append(appendString(appendSep(b, '{', i), k), ':')
		var err error
		if b, err = appendScalar(b, args[k]); err != nil {
			return b, fmt.Errorf("host :%s: %w", k, err)
		}
	}
	return append(b, '}'), nil
}

func appendRows(b []byte, rows [][]any) ([]byte, error) {
	for i, row := range rows {
		b = appendSep(b, '[', i)
		if row == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, cell := range row {
			if j > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendScalar(b, cell); err != nil {
				return b, fmt.Errorf("row %d col %d: %w", i, j, err)
			}
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// appendValueRows is appendRows over value.BoxRows(rows): the same
// bytes, written from the engine's cells without boxing them, so that
// the session can encode an answer while the execution's memory still
// holds it.
func appendValueRows(b []byte, rows []value.Row) []byte {
	for i, row := range rows {
		b = append(appendSep(b, '[', i), '[')
		for j := range row {
			if j > 0 {
				b = append(b, ',')
			}
			switch c := &row[j]; c.Kind() {
			case value.KindInt:
				n, _ := c.Int()
				b = strconv.AppendInt(b, n, 10)
			case value.KindString:
				s, _ := c.Str()
				b = appendString(b, s)
			case value.KindBool:
				b = strconv.AppendBool(b, c.AsBool())
			default:
				b = append(b, "null"...)
			}
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

func appendRequest(b []byte, r *Request) ([]byte, error) {
	b = strconv.AppendUint(append(b, `{"id":`...), r.ID, 10)
	b = appendString(append(b, `,"cmd":`...), string(r.Cmd))
	b = appendStringField(b, `,"sql":`, r.SQL)
	b = appendStringField(b, `,"name":`, r.Name)
	if len(r.Args) > 0 {
		var err error
		if b, err = appendArgs(append(b, `,"args":`...), r.Args); err != nil {
			return b, err
		}
	}
	b = appendTrueField(b, `,"baseline":`, r.Baseline)
	b = appendTrueField(b, `,"analyze":`, r.Analyze)
	b = appendIntField(b, `,"max_rows":`, r.MaxRows)
	b = appendIntField(b, `,"mem_budget":`, r.MemBudget)
	return append(b, '}'), nil
}

func appendResponse(b []byte, r *Response) ([]byte, error) {
	b = strconv.AppendUint(append(b, `{"id":`...), r.ID, 10)
	b = strconv.AppendBool(append(b, `,"ok":`...), r.OK)
	if e := r.Err; e != nil {
		b = appendString(append(b, `,"err":{"code":`...), e.Code)
		b = appendString(append(b, `,"msg":`...), e.Msg)
		b = appendStringField(b, `,"resource":`, e.Resource)
		b = appendIntField(b, `,"limit":`, e.Limit)
		b = appendIntField(b, `,"used":`, e.Used)
		b = append(b, '}')
	}
	b = appendIntField(b, `,"proto":`, int64(r.Proto))
	b = appendStringField(b, `,"server":`, r.Server)
	b = appendUintField(b, `,"session":`, r.Session)
	b = appendStringField(b, `,"status":`, r.Status)
	b = appendStringsField(b, `,"tables":`, r.Tables)
	b = appendIntField(b, `,"max_rows":`, r.MaxRows)
	b = appendIntField(b, `,"mem_budget":`, r.MemBudget)
	b = appendStringsField(b, `,"columns":`, r.Columns)
	if len(r.Rows) > 0 {
		var err error
		if b, err = appendRows(append(b, `,"rows":`...), r.Rows); err != nil {
			return b, err
		}
	} else if len(r.encodedRows) > 0 {
		b = append(append(b, `,"rows":`...), r.encodedRows...)
	}
	if len(r.Rewrite) > 0 {
		b = append(b, `,"rewrites":`...)
		for i, rw := range r.Rewrite {
			b = appendString(append(appendSep(b, '[', i), `{"rule":`...), rw.Rule)
			b = appendString(append(b, `,"description":`...), rw.Description)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendIntField(b, `,"rows_affected":`, r.RowsAffected)
	b = appendUintField(b, `,"catalog_version":`, r.CatalogVersion)
	b = appendTrueField(b, `,"reprepared":`, r.Reprepared)
	b = appendStringField(b, `,"explain":`, r.Explain)
	return append(b, '}'), nil
}
