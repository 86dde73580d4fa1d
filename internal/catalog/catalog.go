// Package catalog holds database schema metadata: tables, columns,
// primary and candidate keys, and CHECK table constraints. It is the
// source of the semantic information Paulley & Larson's analysis
// exploits — "column constraint definitions and table constraint
// definitions in the SQL2 standard" (Section 2.1).
//
// SQL2 key semantics are preserved precisely, because the paper's
// theorems depend on them:
//
//   - PRIMARY KEY columns are implicitly NOT NULL.
//   - UNIQUE candidate keys admit NULLs, but NULLs are treated as a
//     single "special" value: at most one row may carry any particular
//     combination of key values under the ≐ (null-equivalent)
//     comparison. (This is the paper's reading of the ISO draft; it is
//     stricter than modern SQL's "NULLs are all distinct" rule, and
//     Theorem 1's necessity direction relies on it.)
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"uniqopt/internal/sql/ast"
	"uniqopt/internal/value"
)

// Column describes one column of a table.
type Column struct {
	Name    string
	Type    value.Kind
	NotNull bool
}

// Key is a candidate key: an ordered set of column ordinals. Primary
// marks the primary key (at most one per table).
type Key struct {
	Columns []int
	Primary bool
}

// ForeignKey is an inclusion dependency from this table's Columns into
// candidate key RefKey of table RefTable: every non-NULL combination
// of Columns values must appear as a key value of the referenced
// table. The paper's Section 8 names inclusion dependencies as the
// vehicle for King's join elimination.
type ForeignKey struct {
	Columns  []int // ordinals in the owning table
	RefTable string
	RefKey   int // index into the referenced table's Keys
}

// Table is the schema of one base table.
type Table struct {
	Name        string
	Columns     []Column
	Keys        []Key        // Keys[i] is the paper's U_i(R)
	ForeignKeys []ForeignKey // inclusion dependencies into other tables
	Checks      []ast.Expr   // T_R: CHECK constraints, columns unqualified or self-qualified
	byName      map[string]int
	// cat points back to the catalog the table was Defined in, so that
	// post-Define mutations (AddKey, AddCheck) invalidate version-keyed
	// compiled statements automatically.
	cat *Catalog
}

// NewTable builds a table schema and validates it: non-empty unique
// column names, keys over existing columns, primary-key columns forced
// NOT NULL.
func NewTable(name string, cols []Column) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: table name must not be empty")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %s has no columns", name)
	}
	t := &Table{Name: strings.ToUpper(name), byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		cn := strings.ToUpper(c.Name)
		if cn == "" {
			return nil, fmt.Errorf("catalog: table %s: empty column name", name)
		}
		if _, dup := t.byName[cn]; dup {
			return nil, fmt.Errorf("catalog: table %s: duplicate column %s", name, cn)
		}
		t.byName[cn] = len(t.Columns)
		t.Columns = append(t.Columns, Column{Name: cn, Type: c.Type, NotNull: c.NotNull})
	}
	return t, nil
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[strings.ToUpper(name)]; ok {
		return i
	}
	return -1
}

// Column returns the column with the given name.
func (t *Table) Column(name string) (Column, bool) {
	i := t.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return t.Columns[i], true
}

// AddKey registers a candidate key by column names. Primary-key
// columns become NOT NULL, per SQL2.
func (t *Table) AddKey(primary bool, colNames ...string) error {
	if len(colNames) == 0 {
		return fmt.Errorf("catalog: table %s: key must have at least one column", t.Name)
	}
	if primary {
		for _, k := range t.Keys {
			if k.Primary {
				return fmt.Errorf("catalog: table %s: multiple primary keys", t.Name)
			}
		}
	}
	k := Key{Primary: primary}
	seen := make(map[int]bool)
	for _, cn := range colNames {
		i := t.ColumnIndex(cn)
		if i < 0 {
			return fmt.Errorf("catalog: table %s: key column %s does not exist", t.Name, cn)
		}
		if seen[i] {
			return fmt.Errorf("catalog: table %s: duplicate key column %s", t.Name, cn)
		}
		seen[i] = true
		k.Columns = append(k.Columns, i)
		if primary {
			t.Columns[i].NotNull = true
		}
	}
	t.Keys = append(t.Keys, k)
	t.bump()
	return nil
}

// AddCheck registers a CHECK constraint. Every column reference must
// resolve to a column of this table (unqualified, or qualified by the
// table's own name), and the expression must not contain host
// variables or subqueries — SQL2 CHECK constraints are closed formulas
// over one row.
func (t *Table) AddCheck(e ast.Expr) error {
	if e == nil {
		return fmt.Errorf("catalog: table %s: nil CHECK expression", t.Name)
	}
	var bad error
	ast.WalkExpr(e, func(x ast.Expr) bool {
		switch r := x.(type) {
		case *ast.ColumnRef:
			if r.Qualifier != "" && !strings.EqualFold(r.Qualifier, t.Name) {
				bad = fmt.Errorf("catalog: table %s: CHECK references foreign qualifier %s", t.Name, r.Qualifier)
				return false
			}
			if t.ColumnIndex(r.Column) < 0 {
				bad = fmt.Errorf("catalog: table %s: CHECK references unknown column %s", t.Name, r.Column)
				return false
			}
		case *ast.HostVar:
			bad = fmt.Errorf("catalog: table %s: CHECK must not contain host variable :%s", t.Name, r.Name)
			return false
		case *ast.Exists:
			bad = fmt.Errorf("catalog: table %s: CHECK must not contain a subquery", t.Name)
			return false
		}
		return true
	})
	if bad != nil {
		return bad
	}
	t.Checks = append(t.Checks, e)
	t.bump()
	return nil
}

// DropKey removes candidate key i (an index into Keys), modelling
// ALTER TABLE … DROP CONSTRAINT. A key referenced by a FOREIGN KEY of
// any table in the owning catalog cannot be dropped; RefKey indices
// pointing past the removed key shift down by one. Columns a dropped
// PRIMARY KEY forced NOT NULL stay NOT NULL, as in SQL. The schema
// version is bumped so every cached uniqueness verdict derived from
// the key is invalidated.
func (t *Table) DropKey(i int) error {
	if i < 0 || i >= len(t.Keys) {
		return fmt.Errorf("catalog: table %s: no key %d to drop", t.Name, i)
	}
	if t.cat != nil {
		for _, name := range t.cat.TableNames() {
			other, _ := t.cat.Table(name)
			for _, fk := range other.ForeignKeys {
				if fk.RefTable == t.Name && fk.RefKey == i {
					return fmt.Errorf("catalog: table %s: key %d is referenced by a FOREIGN KEY of %s",
						t.Name, i, other.Name)
				}
			}
		}
		for _, name := range t.cat.TableNames() {
			other, _ := t.cat.Table(name)
			for fi := range other.ForeignKeys {
				if other.ForeignKeys[fi].RefTable == t.Name && other.ForeignKeys[fi].RefKey > i {
					other.ForeignKeys[fi].RefKey--
				}
			}
		}
	}
	t.Keys = append(t.Keys[:i], t.Keys[i+1:]...)
	t.bump()
	return nil
}

// bump invalidates version-keyed caches of the owning catalog. Tables
// not yet Defined have no observers, so mutating them needs no bump.
func (t *Table) bump() {
	if t.cat != nil {
		t.cat.Bump()
	}
}

// PrimaryKey returns the primary key, if any.
func (t *Table) PrimaryKey() (Key, bool) {
	for _, k := range t.Keys {
		if k.Primary {
			return k, true
		}
	}
	return Key{}, false
}

// KeyColumnNames returns the column names of key k.
func (t *Table) KeyColumnNames(k Key) []string {
	out := make([]string, len(k.Columns))
	for i, c := range k.Columns {
		out[i] = t.Columns[c].Name
	}
	return out
}

// ColumnNames returns all column names in ordinal order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// Catalog is a set of table schemas plus host-variable domain
// declarations.
type Catalog struct {
	tables map[string]*Table
	// order remembers definition order. Foreign keys may only
	// reference tables that are already defined (AddForeignKey), so
	// replaying DDL in this order is always FK-safe — the property
	// snapshot encoding and WAL recovery depend on.
	order []string
	// version counts schema mutations. The statement cache keys on it,
	// so any DDL change invalidates every compiled statement.
	version atomic.Uint64
}

// Version reports the schema version: it increases on every mutation
// (table definition, key, CHECK, foreign key). Compiled statements
// keyed on the version are invalidated by any change.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// Bump invalidates version-keyed caches explicitly. Schema mutations
// through the catalog or through a Defined table (AddKey, AddCheck)
// bump automatically; Bump remains for callers that mutate exported
// Table fields in place.
func (c *Catalog) Bump() { c.version.Add(1) }

// RestoreVersion raises the schema version to at least v. Recovery
// uses it to restore version continuity across restarts: replaying a
// snapshot's DDL from scratch produces fewer bumps than the original
// history (dropped keys), so without restoration a
// recovered catalog could report a version an old cached verdict was
// keyed under while describing a different schema. The version only
// moves forward — a stale v is ignored, never a rollback.
func (c *Catalog) RestoreVersion(v uint64) {
	for {
		cur := c.version.Load()
		if cur >= v || c.version.CompareAndSwap(cur, v) {
			return
		}
	}
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Define adds a table to the catalog.
func (c *Catalog) Define(t *Table) error {
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("catalog: table %s already defined", t.Name)
	}
	c.tables[t.Name] = t
	c.order = append(c.order, t.Name)
	t.cat = c
	c.Bump()
	return nil
}

// AddForeignKey registers an inclusion dependency from the named
// columns of t into the referenced table, whose referenced columns
// must form one of its declared candidate keys (matching order and
// arity). The referenced table must already be defined.
func (c *Catalog) AddForeignKey(t *Table, cols []string, refTable string, refCols []string) error {
	if len(cols) == 0 || len(cols) != len(refCols) {
		return fmt.Errorf("catalog: table %s: FOREIGN KEY arity mismatch", t.Name)
	}
	ref, ok := c.Table(refTable)
	if !ok {
		return fmt.Errorf("catalog: table %s: FOREIGN KEY references unknown table %s", t.Name, refTable)
	}
	fk := ForeignKey{RefTable: ref.Name, RefKey: -1}
	for _, cn := range cols {
		i := t.ColumnIndex(cn)
		if i < 0 {
			return fmt.Errorf("catalog: table %s: FOREIGN KEY column %s does not exist", t.Name, cn)
		}
		fk.Columns = append(fk.Columns, i)
	}
	for ki, k := range ref.Keys {
		if len(k.Columns) != len(refCols) {
			continue
		}
		match := true
		for i, rc := range refCols {
			if ref.ColumnIndex(rc) != k.Columns[i] {
				match = false
				break
			}
		}
		if match {
			fk.RefKey = ki
			break
		}
	}
	if fk.RefKey < 0 {
		return fmt.Errorf("catalog: table %s: FOREIGN KEY references (%s) of %s, which is not a declared candidate key",
			t.Name, strings.Join(refCols, ", "), ref.Name)
	}
	for i, ci := range fk.Columns {
		rc := ref.Columns[ref.Keys[fk.RefKey].Columns[i]]
		if t.Columns[ci].Type != rc.Type {
			return fmt.Errorf("catalog: table %s: FOREIGN KEY column %s has type %s, referenced %s.%s has %s",
				t.Name, t.Columns[ci].Name, t.Columns[ci].Type, ref.Name, rc.Name, rc.Type)
		}
	}
	t.ForeignKeys = append(t.ForeignKeys, fk)
	c.Bump()
	return nil
}

// DefineFromAST adds a table from a parsed CREATE TABLE statement.
func (c *Catalog) DefineFromAST(ct *ast.CreateTable) (*Table, error) {
	cols := make([]Column, len(ct.Columns))
	for i, cd := range ct.Columns {
		var k value.Kind
		switch cd.Type {
		case ast.TypeInteger:
			k = value.KindInt
		case ast.TypeVarchar:
			k = value.KindString
		case ast.TypeBoolean:
			k = value.KindBool
		default:
			return nil, fmt.Errorf("catalog: table %s: unsupported type %v", ct.Name, cd.Type)
		}
		cols[i] = Column{Name: cd.Name, Type: k, NotNull: cd.NotNull}
	}
	t, err := NewTable(ct.Name, cols)
	if err != nil {
		return nil, err
	}
	for _, kd := range ct.Keys {
		if err := t.AddKey(kd.Primary, kd.Columns...); err != nil {
			return nil, err
		}
	}
	for _, chk := range ct.Checks {
		if err := t.AddCheck(chk); err != nil {
			return nil, err
		}
	}
	if err := c.Define(t); err != nil {
		return nil, err
	}
	for _, fk := range ct.ForeignKeys {
		if err := c.AddForeignKey(t, fk.Columns, fk.RefTable, fk.RefColumns); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Table looks up a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[strings.ToUpper(name)]
	return t, ok
}

// TableNames returns all defined table names, sorted.
func (c *Catalog) TableNames() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefinedTables returns the tables in definition order. Because a
// FOREIGN KEY may only reference an already-defined table, replaying
// each table's DDL in this order re-creates the schema without
// forward references.
func (c *Catalog) DefinedTables() []*Table {
	out := make([]*Table, 0, len(c.order))
	for _, n := range c.order {
		if t, ok := c.tables[n]; ok {
			out = append(out, t)
		}
	}
	return out
}
