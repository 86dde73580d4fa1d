package workload

import (
	"math/rand"
	"strings"

	"uniqopt/internal/catalog"
)

// SmallDDL is the schema the exact bounded-domain checks enumerate: small
// enough that every instance of a few rows can be tried. R(K, X, Y) and
// S(K, Z) are keyed by K; NK has no key; and there is a table for each
// case an analyzer extension reasons about — U's UNIQUE key is nullable,
// CK's key is composite, CN's CHECK pins a NOT NULL column of its key,
// CV's CHECK is on a nullable column (its UNIQUE key). F references S
// through a NOT NULL foreign key and R through a nullable one, the two
// cases join elimination tells apart.
var SmallDDL = []string{
	`CREATE TABLE R (K INTEGER, X INTEGER, Y INTEGER, PRIMARY KEY (K))`,
	`CREATE TABLE S (K INTEGER, Z INTEGER, PRIMARY KEY (K))`,
	`CREATE TABLE NK (A INTEGER, B INTEGER)`,
	`CREATE TABLE U (K INTEGER, X INTEGER, UNIQUE (K))`,
	`CREATE TABLE CK (A INTEGER, B INTEGER, Z INTEGER, PRIMARY KEY (A, B))`,
	`CREATE TABLE CN (K INTEGER, C INTEGER NOT NULL, W INTEGER, PRIMARY KEY (K, C), CHECK (C = 1))`,
	`CREATE TABLE CV (C INTEGER, W INTEGER, UNIQUE (C), CHECK (C = 1))`,
	`CREATE TABLE F (K INTEGER, SK INTEGER NOT NULL, RK INTEGER, PRIMARY KEY (K),
		FOREIGN KEY (SK) REFERENCES S (K), FOREIGN KEY (RK) REFERENCES R (K))`,
}

// SmallCatalog returns SmallDDL's schema.
func SmallCatalog() *catalog.Catalog {
	c, err := buildCatalog(SmallDDL)
	if err != nil {
		panic(err)
	}
	return c
}

// smallTable is a keyed table of SmallDDL a random block draws from,
// with its columns.
type smallTable struct {
	name string
	cols []string
}

var smallTables = []smallTable{
	{"R", []string{"K", "X", "Y"}},
	{"S", []string{"K", "Z"}},
	{"U", []string{"K", "X"}},
	{"CK", []string{"A", "B", "Z"}},
	{"CN", []string{"K", "C", "W"}},
	{"CV", []string{"C", "W"}},
}

// RandomBlock builds a random query block over one or two different
// tables of SmallDDL: a projection of 1-3 of their columns and 0-3
// conjuncts, each an equality with a constant, a host variable or a
// column, a range, IS NULL or IS NOT NULL.
func RandomBlock(r *rand.Rand) string {
	b := randomBlock(r, smallTables, nil)
	return b.sql(strings.Join(b.proj, ", "))
}

// RandomCorrelated composes two blocks into a query with a correlated
// EXISTS, the shape of Theorem 2: an outer block over one table, whose
// last conjunct is EXISTS of a block over one or two other tables whose
// column equalities may reach the outer table's columns.
func RandomCorrelated(r *rand.Rand) string {
	t := smallTables[r.Intn(len(smallTables))]
	outer := randomBlock(r, []smallTable{t}, nil)
	var rest []smallTable
	for _, o := range smallTables {
		if o.name != t.name {
			rest = append(rest, o)
		}
	}
	sub := randomBlock(r, rest, outer.cols)
	outer.conj = append(outer.conj, "EXISTS ("+sub.sql("*")+")")
	return outer.sql(strings.Join(outer.proj, ", "))
}

// block is a generated query block: its tables, its columns, the columns
// it projects and its conjuncts.
type block struct {
	from, cols, proj, conj []string
}

func (b block) sql(items string) string {
	from := make([]string, len(b.from))
	for i, t := range b.from {
		from[i] = t + " " + t
	}
	q := "SELECT " + items + " FROM " + strings.Join(from, ", ")
	if len(b.conj) > 0 {
		q += " WHERE " + strings.Join(b.conj, " AND ")
	}
	return q
}

// randomBlock draws a block over one or two different tables of tables.
// A column equality's right side is drawn from the block's columns and
// outer's.
func randomBlock(r *rand.Rand, tables []smallTable, outer []string) block {
	picks := []int{r.Intn(len(tables))}
	if len(tables) > 1 && r.Intn(2) == 0 {
		j := r.Intn(len(tables) - 1)
		if j >= picks[0] {
			j++
		}
		picks = append(picks, j)
	}
	var b block
	for _, i := range picks {
		t := tables[i]
		b.from = append(b.from, t.name)
		for _, c := range t.cols {
			b.cols = append(b.cols, t.name+"."+c)
		}
	}
	cols := b.cols
	n := min(1+r.Intn(3), len(cols))
	seen := map[string]bool{}
	for len(b.proj) < n {
		c := cols[r.Intn(len(cols))]
		if !seen[c] {
			seen[c] = true
			b.proj = append(b.proj, c)
		}
	}
	others := append(append([]string(nil), cols...), outer...)
	for i := 0; i < r.Intn(4); i++ {
		a := cols[r.Intn(len(cols))]
		switch r.Intn(6) {
		case 0:
			b.conj = append(b.conj, a+" = 1")
		case 1:
			b.conj = append(b.conj, a+" = "+others[r.Intn(len(others))])
		case 2:
			b.conj = append(b.conj, a+" < 2")
		case 3:
			b.conj = append(b.conj, a+" = :H")
		case 4:
			b.conj = append(b.conj, a+" IS NULL")
		default:
			b.conj = append(b.conj, a+" IS NOT NULL")
		}
	}
	return b
}
