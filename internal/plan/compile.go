package plan

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/eval"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/lexer"
	"uniqopt/internal/value"
)

// Compiled is everything the planner decides about a statement before
// it sees a host value or a table row: the rewrites that fired and the
// physical plan tree of what they left (tree.go). It is immutable, so
// one Compiled serves every execution of the statement's shape —
// concurrently, and (because no analysis or planning step reads a
// constant's value) under any binding vector. Params names its slots:
// the Lits lifted literals ($n at n-1), then the host variables as first
// named; subquery blocks' outer columns follow, Width slots in all.
type Compiled struct {
	// Query is the statement as parsed, before any rewrite.
	Query ast.Query
	// Verdict is Algorithm 1's on Query, the statement as written: the
	// decision that licensed or blocked the rewrites, whose provenance
	// EXPLAIN prints. Nil when the analyzer refused the statement.
	Verdict *core.Verdict
	Lits    int
	Params  []string
	Width   int

	root     operator       // the plan of the query the fixpoint left
	rewrites []appliedTexts // in firing order
}

// appliedTexts is one fired rewrite with its user-visible strings —
// Description, Before and After — pre-split for splicing.
type appliedTexts struct {
	ap    core.Applied
	texts [3]text
}

// appliedFields are the strings of ap that appliedTexts.texts render, in
// the same order.
func appliedFields(ap *core.Applied) [3]*string {
	return [3]*string{&ap.Description, &ap.Before, &ap.After}
}

// Compile runs the compile-time half of Run on q: the rewrite fixpoint
// (when Options.ApplyRewrites) and planSelect on every block, joined
// under the set operation if q is one. No step reads a table row or a
// row count.
func (p *Planner) Compile(q ast.Query) (c *Compiled, err error) {
	defer engine.Contain("plan.Run", &err)
	c = &Compiled{Query: q}
	c.Verdict, _ = p.An.AnalyzeQuery(q)
	c.Lits, c.Params = params(q)
	c.Width = len(c.Params)
	vars := &eval.Vars{Hosts: c.Params}
	run := q
	if p.Opts.ApplyRewrites {
		aps, rewritten, err := p.rewriteFixpoint(q)
		if err != nil {
			return nil, err
		}
		run = rewritten
		for _, ap := range aps {
			r := appliedTexts{ap: ap}
			for i, f := range appliedFields(&ap) {
				r.texts[i] = newText(*f)
			}
			c.rewrites = append(c.rewrites, r)
		}
	}
	switch x := run.(type) {
	case *ast.Select:
		if c.root, _, err = p.planSelect(x, nil, vars, &c.Width); err != nil {
			return nil, err
		}
	case *ast.SetOp:
		l, lcols, err := p.planSelect(x.Left, nil, vars, &c.Width)
		if err != nil {
			return nil, err
		}
		r, rcols, err := p.planSelect(x.Right, nil, vars, &c.Width)
		if err != nil {
			return nil, err
		}
		if len(lcols) != len(rcols) {
			return nil, fmt.Errorf("plan: set operands are not union-compatible")
		}
		c.root = &setOp{l: l, r: r, except: x.Op != ast.Intersect, all: x.All}
	default:
		return nil, fmt.Errorf("plan: unknown query node %T", run)
	}
	return c, nil
}

// params names q's parameters in slot order: $1 … $n for its n lifted
// literals, then its host variables as q first names them.
func params(q ast.Query) (lits int, names []string) {
	var hvs []*ast.HostVar
	switch x := q.(type) {
	case *ast.Select:
		hvs = ast.HostVars(x.Where)
	case *ast.SetOp:
		hvs = append(ast.HostVars(x.Left.Where), ast.HostVars(x.Right.Where)...)
	}
	var hosts []string
	for _, h := range hvs {
		if n, ok := lexer.LiftedOrdinal(h.Name); ok {
			lits = max(lits, n)
		} else if !slices.Contains(hosts, h.Name) {
			hosts = append(hosts, h.Name)
		}
	}
	for n := 1; n <= lits; n++ {
		names = append(names, lexer.LiftedName(n))
	}
	return lits, append(names, hosts...)
}

// Bind lays out an execution's binding vector from hosts, which looks each
// parameter up by name, and refuses one it lacks.
func (c *Compiled) Bind(hosts func(name string) (value.Value, bool)) ([]value.Value, error) {
	vals := make([]value.Value, c.Width)
	for i, name := range c.Params {
		ok := false
		if hosts != nil {
			vals[i], ok = hosts(name)
		}
		if !ok {
			return nil, fmt.Errorf("plan: unbound host variable :%s", name)
		}
	}
	return vals, nil
}

// Render returns the plan tree as EXPLAIN shows it for one execution's
// binding vector, without executing anything. A plan-only EXPLAIN
// missing a value passes the literals alone: every host variable then
// renders as written, in the plan any non-NULL value executes.
func (c *Compiled) Render(vals []value.Value) *Node { return c.root.render(vals) }

// Rewrites returns the rewrites that fired, in firing order, quoting
// this execution's literals. The texts with a slot are spliced into one
// buffer, grown once, and handed out as substrings of it; a text without
// one is returned as stored.
func (c *Compiled) Rewrites(vals []value.Value) []core.Applied {
	if len(c.rewrites) == 0 {
		return nil
	}
	out := make([]core.Applied, len(c.rewrites))
	room := 0
	for i := range c.rewrites {
		out[i] = c.rewrites[i].ap
		for _, t := range c.rewrites[i].texts {
			room += t.room(vals)
		}
	}
	if room == 0 {
		return out
	}
	// Each spliced text is cut out of the buffer once it is complete.
	type cut struct {
		dst *string
		end int
	}
	var cutBuf [3 * maxRewritePasses]cut
	cuts := cutBuf[:0]
	var sb strings.Builder
	sb.Grow(room)
	for i := range c.rewrites {
		for j, f := range appliedFields(&out[i]) {
			if t := c.rewrites[i].texts[j]; len(t.slots) > 0 {
				t.write(&sb, vals)
				cuts = append(cuts, cut{f, sb.Len()})
			}
		}
	}
	s, start := sb.String(), 0
	for _, k := range cuts {
		*k.dst, start = s[start:k.end], k.end
	}
	return out
}

// CompileBits folds every option that changes what Compile produces
// into cache-key bits — SortDistinct among them: it picks the tree's
// duplicate-elimination operator, so two planners that differ only in
// it must never run each other's plan. The budgets only bound an
// execution and are excluded: the same Compiled serves them all.
func (o Options) CompileBits() uint64 {
	b := o.Core.Bits() << 2
	if o.ApplyRewrites {
		b |= 1
	}
	if o.SortDistinct {
		b |= 2
	}
	return b
}

// text is a user-visible rendering with slots for lifted literals: the
// string parts[0] + the value at slots[0] + parts[1] + … . Every string
// EXPLAIN or Result.Rewrites shows that derives from the AST is rendered
// once per shape as a text and spliced per execution, so the hot path
// never calls SQL() and the output shows the statement's own literals.
type text struct {
	parts []string // len(slots)+1
	slots []int
}

// newText splits s at every lifted host variable (:$ followed by
// digits). User host variables (:NAME) are ordinary text.
func newText(s string) text {
	var t text
	start := 0 // where the part being collected begins
	for i := 0; ; {
		k := strings.Index(s[i:], ":$")
		if k < 0 {
			break
		}
		i += k
		j := i + 2
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if n, ok := lexer.LiftedOrdinal(s[i+1 : j]); ok {
			t.parts = append(t.parts, s[start:i])
			t.slots = append(t.slots, n-1)
			start = j
		}
		i = j
	}
	t.parts = append(t.parts, s[start:])
	return t
}

// in renders t with each slot filled by the SQL spelling of its value in
// vals; a slot past the vector keeps its :$n spelling.
func (t text) in(vals []value.Value) string {
	if len(t.slots) == 0 {
		return strings.Join(t.parts, "") // one part, or none for the zero text
	}
	var sb strings.Builder
	sb.Grow(t.room(vals))
	t.write(&sb, vals)
	return sb.String()
}

// room is the length t renders to under vals, or a little more: the
// space a buffer needs so that writing t grows it no further (a string
// whose quotes double may still overrun it). A text without a slot
// renders as stored and needs none.
func (t text) room(vals []value.Value) int {
	if len(t.slots) == 0 {
		return 0
	}
	n := 0
	for _, p := range t.parts {
		n += len(p)
	}
	for _, at := range t.slots {
		switch {
		case at >= len(vals):
			n += 22 // :$ and the longest slot number
		case vals[at].Kind() == value.KindString:
			n += len(vals[at].AsString()) + 2
		default:
			n += 20 // the longest integer; NULL, TRUE and FALSE are shorter
		}
	}
	return n
}

// write appends t, its slots filled as in renders them, to sb.
func (t text) write(sb *strings.Builder, vals []value.Value) {
	for i, at := range t.slots {
		sb.WriteString(t.parts[i])
		if at < len(vals) {
			var buf [32]byte
			sb.Write(vals[at].AppendSQL(buf[:0]))
		} else {
			sb.WriteString(":$" + strconv.Itoa(at+1))
		}
	}
	sb.WriteString(t.parts[len(t.slots)])
}

// filter is a predicate with its rendering and, once the layout it
// reads is known, its prepared form (nil pred = no filter).
type filter struct {
	pred ast.Expr
	text text
	prog *eval.Program
}

// newFilter conjoins conj into one filter.
func newFilter(conj []ast.Expr) filter {
	if len(conj) == 0 {
		return filter{}
	}
	pred := ast.AndAll(conj...)
	return filter{pred: pred, text: newText(pred.SQL())}
}

// over returns f prepared against the rows it reads, laid out as cols,
// and its block's slots, named by vars: a column the layout lacks — a
// correlation reference of a subquery block — is read from its slot.
func (f filter) over(cols []string, vars *eval.Vars) filter {
	f.prog = eval.Prepare(f.pred, cols, vars)
	return f
}

// unliftedError is an execution error whose text mentioned lifted
// names, re-spelled with the statement's own literals; errors.Is/As
// see through it.
type unliftedError struct {
	msg string
	err error
}

func (e *unliftedError) Error() string { return e.msg }
func (e *unliftedError) Unwrap() error { return e.err }

// unlift rewrites an error raised under lifted names (an eval error
// quoting the offending comparison, say) to show the literals vals binds
// them to. Errors that mention no lifted name pass through.
func unlift(err error, vals []value.Value) error {
	if err == nil || !strings.Contains(err.Error(), ":$") {
		return err
	}
	return &unliftedError{msg: newText(err.Error()).in(vals), err: err}
}
