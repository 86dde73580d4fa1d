// Package catalog is the golden fixture for the catver analyzer: its
// import path ends internal/catalog, so every exported mutating method
// here must bump the schema version that keys the statement cache.
package catalog

import "sync/atomic"

// Catalog is a mini schema registry with a version counter.
type Catalog struct {
	version atomic.Uint64
	tables  map[string]int
}

// Version reports the schema version.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// Bump invalidates version-keyed caches.
func (c *Catalog) Bump() { c.version.Add(1) }

// DefineGood mutates the schema and bumps the version.
func (c *Catalog) DefineGood(name string) {
	c.tables[name] = 1
	c.Bump()
}

// DefineInline mutates the schema and bumps the counter directly.
func (c *Catalog) DefineInline(name string) {
	c.tables[name] = 1
	c.version.Add(1)
}

// DefineBad mutates the schema without invalidating cached verdicts.
func (c *Catalog) DefineBad(name string) { // want "exported method DefineBad mutates the catalog schema"
	c.tables[name] = 1
}

// Lookup only reads; no bump required.
func (c *Catalog) Lookup(name string) int { return c.tables[name] }

// Table is a mini table schema. It carries no back-pointer, so its
// mutators must bump through a helper.
type Table struct {
	keys []int
	cat  *Catalog
}

// bump forwards to the owning catalog when attached.
func (t *Table) bump() {
	if t.cat != nil {
		t.cat.Bump()
	}
}

// AddKeyGood mutates and bumps via the helper.
func (t *Table) AddKeyGood(k int) {
	t.keys = append(t.keys, k)
	t.bump()
}

// AddKeyBad mutates the table's keys — which feed uniqueness verdicts
// — without any bump.
func (t *Table) AddKeyBad(k int) { // want "exported method AddKeyBad mutates the catalog schema"
	t.keys = append(t.keys, k)
}

// reindex is unexported: internal helpers are the caller's problem.
func (t *Table) reindex() {
	t.keys = t.keys[:0]
}
