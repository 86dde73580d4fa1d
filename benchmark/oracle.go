package main

import "fmt"

// digest summarises a result multiset: the row count and an
// order-insensitive 64-bit checksum (the wrapping sum of per-row
// hashes). Dropping, duplicating or altering a row changes it; the
// order rows arrive in does not.
type digest struct {
	rows int
	sum  uint64
}

// rowHash accumulates one row's cells, FNV-1a style with a type tag per
// cell so 1 and "1" differ.
type rowHash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newRow() rowHash { return fnvOffset }

func (h rowHash) byte(b byte) rowHash { return (h ^ rowHash(b)) * fnvPrime }

func (h rowHash) int(v int64) rowHash {
	h = h.byte('i')
	for i := 0; i < 8; i++ {
		h = h.byte(byte(v >> (8 * i)))
	}
	return h
}

func (h rowHash) str(s string) rowHash {
	h = h.byte('s')
	for i := 0; i < len(s); i++ {
		h = h.byte(s[i])
	}
	return h.byte(0)
}

func (d *digest) add(h rowHash) {
	d.rows++
	d.sum += mix64(uint64(h))
}

// digestRows summarises a result as the public API returns it: cells
// are int64, string, bool or nil.
func digestRows(rows [][]any) (digest, error) {
	var d digest
	for _, row := range rows {
		h := newRow()
		for _, c := range row {
			switch v := c.(type) {
			case int64:
				h = h.int(v)
			case string:
				h = h.str(v)
			case bool:
				h = h.byte('b')
				if v {
					h = h.byte(1)
				}
			case nil:
				h = h.byte('n')
			default:
				return d, fmt.Errorf("result cell of type %T", c)
			}
		}
		d.add(h)
	}
	return d, nil
}

// The references below are plain Go over the dataset's arrays. Each
// yields the multiset the statement of the same name must return for
// the given parameters, DISTINCT included. They share nothing with the
// engine: not its evaluator, not its QueryBaseline.

// point: SELECT ALL S.* FROM SUPPLIER S WHERE S.SNO = n.
func (d *dataset) point(n int64) digest {
	var out digest
	if n >= 1 && n <= int64(len(d.suppliers)) {
		s := d.suppliers[n-1]
		out.add(newRow().int(s.sno).str(s.sname).str(s.scity).int(s.budget).str(s.status))
	}
	return out
}

// partsOf: Examples 3 and 4 — (S.SNO, SNAME, P.PNO, PNAME) for the parts
// of supplier n with OEM-PNO > minOEM (pass 0 for no bound). The key
// (SNO, PNO) is projected, so ALL and DISTINCT agree.
func (d *dataset) partsOf(n, minOEM int64) digest {
	var out digest
	if n < 1 || n > int64(len(d.suppliers)) {
		return out
	}
	s := d.suppliers[n-1]
	for _, p := range d.parts[n-1] {
		if p.oem > minOEM {
			out.add(newRow().int(s.sno).str(s.sname).int(p.pno).str(p.pname))
		}
	}
	return out
}

// existsProbe: Example 7's shape, key-bound — (S.SNO, S.SNAME) of
// supplier n when it stocks part k.
func (d *dataset) existsProbe(n, k int64) digest {
	var out digest
	if n < 1 || n > int64(len(d.suppliers)) {
		return out
	}
	for _, p := range d.parts[n-1] {
		if p.pno == k {
			s := d.suppliers[n-1]
			out.add(newRow().int(s.sno).str(s.sname))
		}
	}
	return out
}

// chain3: AGENTS ⋈ PARTS ⋈ SUPPLIER on SNO, bound to supplier n —
// (A.SNO, A.ANO, P.PNO, S.SNAME) for every agent × part pair whose part
// has OEM-PNO <> notOEM (pass 0 to keep every part).
func (d *dataset) chain3(n, notOEM int64) digest {
	var out digest
	if n < 1 || n > int64(len(d.suppliers)) {
		return out
	}
	s := d.suppliers[n-1]
	for _, a := range d.agents[n-1] {
		for _, p := range d.parts[n-1] {
			if p.oem != notOEM {
				out.add(newRow().int(a.sno).int(a.ano).int(p.pno).str(s.sname))
			}
		}
	}
	return out
}

// agentRead: the read-own-write check — the full AGENTS row (sno, ano).
func (d *dataset) agentRead(sno, ano int64) digest {
	var out digest
	if sno >= 1 && sno <= int64(len(d.suppliers)) && ano >= 1 && ano <= int64(len(d.agents[sno-1])) {
		a := d.agents[sno-1][ano-1]
		out.add(newRow().int(a.sno).int(a.ano).str(a.aname).str(a.acity))
	}
	return out
}

// partRead: the durable workload's readback — supplier ⋈ part, bound to
// the key (sno, pno): (S.SNO, S.SNAME, P.PNO, P.OEM-PNO).
func (d *dataset) partRead(sno, pno int64) digest {
	var out digest
	if sno < 1 || sno > int64(len(d.suppliers)) {
		return out
	}
	for _, p := range d.parts[sno-1] {
		if p.pno == pno {
			s := d.suppliers[sno-1]
			out.add(newRow().int(s.sno).str(s.sname).int(p.pno).int(p.oem))
		}
	}
	return out
}

// redParts enumerates the RED parts with PNO >= minPNO and OEM-PNO <
// maxOEM, the qualifying rows of Examples 1, 2 and 8.
func (d *dataset) redParts(minPNO, maxOEM int64, f func(s supplier, p part)) {
	for i, ps := range d.parts {
		for _, p := range ps {
			if p.color == "RED" && p.pno >= minPNO && p.oem < maxOEM {
				f(d.suppliers[i], p)
			}
		}
	}
}

// ex1: Example 1 — DISTINCT S.SNO, P.PNO, P.PNAME over the RED parts.
// The key of PARTS is projected, so no two qualifying rows agree.
func (d *dataset) ex1(minPNO, maxOEM int64) digest {
	var out digest
	d.redParts(minPNO, maxOEM, func(s supplier, p part) {
		out.add(newRow().int(s.sno).int(p.pno).str(p.pname))
	})
	return out
}

// ex2: Example 2 — DISTINCT S.SNAME, P.PNO, P.PNAME over the RED parts.
// SNAME is not a key, so duplicates are real and removed here.
func (d *dataset) ex2(minPNO, maxOEM int64) digest {
	type key struct {
		sname string
		pno   int64
		pname string
	}
	seen := make(map[key]struct{}, 8*len(d.suppliers)) // about the RED third of 25 parts each
	var out digest
	d.redParts(minPNO, maxOEM, func(s supplier, p part) {
		k := key{s.sname, p.pno, p.pname}
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out.add(newRow().str(k.sname).int(k.pno).str(k.pname))
		}
	})
	return out
}

// ex7: Example 7 — (S.SNO, S.SNAME) of the suppliers named sname with
// BUDGET < maxBudget that stock part k.
func (d *dataset) ex7(sname string, maxBudget, k int64) digest {
	var out digest
	for i, s := range d.suppliers {
		if s.sname != sname || s.budget >= maxBudget {
			continue
		}
		for _, p := range d.parts[i] {
			if p.pno == k {
				out.add(newRow().int(s.sno).str(s.sname))
			}
		}
	}
	return out
}

// ex8: Example 8 — (S.SNO, S.SNAME) of every supplier with at least one
// RED part of PNO >= minPNO; one row per supplier however many match.
func (d *dataset) ex8(minPNO int64) digest {
	var out digest
	for i, s := range d.suppliers {
		for _, p := range d.parts[i] {
			if p.color == "RED" && p.pno >= minPNO {
				out.add(newRow().int(s.sno).str(s.sname))
				break
			}
		}
	}
	return out
}

// ex9: Example 9 — the SNOs of suppliers in scity with BUDGET >
// minBudget, INTERSECT the SNOs of agents in city c1 or c2. INTERSECT is
// DISTINCT, and SNO is SUPPLIER's key: one row per qualifying supplier.
func (d *dataset) ex9(scity string, minBudget int64, c1, c2 string) digest {
	var out digest
	for i, s := range d.suppliers {
		if s.scity != scity || s.budget <= minBudget {
			continue
		}
		for _, a := range d.agents[i] {
			if a.acity == c1 || a.acity == c2 {
				out.add(newRow().int(s.sno))
				break
			}
		}
	}
	return out
}

// disj: DISTINCT S.SNO, P.PNO over the join where (RED and OEM-PNO <
// redBelow) or (PNO = k and OEM-PNO > kAbove). The key is projected.
func (d *dataset) disj(redBelow, k, kAbove int64) digest {
	var out digest
	for _, ps := range d.parts {
		for _, p := range ps {
			if (p.color == "RED" && p.oem < redBelow) || (p.pno == k && p.oem > kAbove) {
				out.add(newRow().int(p.sno).int(p.pno))
			}
		}
	}
	return out
}

// filterScan: (P.SNO, P.PNO, P.OEM-PNO) of the non-RED parts with PNO >
// minPNO and OEM-PNO < maxOEM.
func (d *dataset) filterScan(minPNO, maxOEM int64) digest {
	var out digest
	for _, ps := range d.parts {
		for _, p := range ps {
			if p.color != "RED" && p.pno > minPNO && p.oem < maxOEM {
				out.add(newRow().int(p.sno).int(p.pno).int(p.oem))
			}
		}
	}
	return out
}

// rangeJoin: Example 11 — the full SUPPLIER row of every supplier with
// lo <= SNO <= hi that stocks part k.
func (d *dataset) rangeJoin(lo, hi, k int64) digest {
	var out digest
	for i, s := range d.suppliers {
		if s.sno < lo || s.sno > hi {
			continue
		}
		for _, p := range d.parts[i] {
			if p.pno == k {
				out.add(newRow().int(s.sno).str(s.sname).str(s.scity).int(s.budget).str(s.status))
			}
		}
	}
	return out
}
