// Package rowalias is the golden fixture for the rowalias analyzer.
package rowalias

import "uniqopt/internal/value"

// Partition mimics a partitioned operator output.
type Partition struct {
	Rows []value.Row
}

// BadAppend mutates a row after appending it to an output slice — the
// output now aliases the mutated backing array.
func BadAppend(rows []value.Row, r value.Row) []value.Row {
	rows = append(rows, r)
	r[0] = value.Value{I: 9} // want "after it was appended to another slice at line 14"
	return rows
}

// BadSend mutates a row after sending it across a channel boundary —
// the receiving partition races with the write.
func BadSend(ch chan value.Row, r value.Row) {
	ch <- r
	r[0] = value.Value{I: 9} // want "after it was sent on a channel at line 22"
}

// BadStore mutates a row after parking it in a struct field.
func BadStore(p *Partition, rs []value.Row, r value.Row) {
	p.Rows = rs
	rs[0] = r // want "after it was stored into a struct field at line 28"
}

// BadComposite mutates a row captured by a composite literal.
func BadComposite(r value.Row) *Partition {
	p := &Partition{Rows: []value.Row{r}}
	r[0] = value.Value{I: 1} // want "after it was captured by a composite literal at line 34"
	return p
}

// GoodCopy writes before sharing, or shares a fresh clone.
func GoodCopy(ch chan value.Row, r value.Row) []value.Row {
	r[0] = value.Value{I: 1} // write precedes every escape: fine
	ch <- r.Clone()
	var out []value.Row
	out = append(out, r.Clone())
	return out
}

// GoodEarlyReturn writes after a conditional return: the write only
// runs when the row was not returned.
func GoodEarlyReturn(r value.Row) value.Row {
	if len(r) == 0 {
		return r
	}
	r[0] = value.Value{I: 2}
	return r
}

// BadSemiEmit passes an outer row through to the output batch — the
// first-match probe emits the row it was given, which may be a stored
// table row — and then reuses it as the next probe's key buffer.
func BadSemiEmit(out []value.Row, outer value.Row, key value.Value) []value.Row {
	out = append(out, outer)
	outer[0] = key // want "after it was appended to another slice at line 62"
	return out
}

// GoodJoinEmit writes only the arena row it carved, before emitting it,
// and keeps its probe key in a buffer it never emits.
func GoodJoinEmit(out []value.Row, arena, keyBuf, outer, inner value.Row) []value.Row {
	keyBuf[0] = outer[0]
	nr := arena[: len(outer)+len(inner) : len(outer)+len(inner)]
	copy(nr, outer)
	copy(nr[len(outer):], inner)
	return append(out, nr)
}
