package plan

import (
	"fmt"
	"strings"

	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/value"
)

// Compiled is everything the planner decides about a statement before
// it sees a host value or a table row: the rewrites that fired and the
// physical plan tree of what they left (tree.go). It is immutable, so
// one Compiled serves every execution of the statement's shape —
// concurrently, and (because no analysis or planning step reads a
// constant's value) under any literal vector bound to the lifted names
// $1, $2, ….
type Compiled struct {
	// Query is the statement as parsed, before any rewrite; EXPLAIN's
	// provenance trace analyzes it.
	Query ast.Query

	root     operator       // the plan of the query the fixpoint left
	rewrites []appliedTexts // in firing order
	// subqueries reports that some filter of the tree still evaluates a
	// subquery, so an execution needs the reference executor.
	subqueries bool
}

// appliedTexts is one fired rewrite with its user-visible strings
// pre-split for splicing.
type appliedTexts struct {
	ap                  core.Applied
	desc, before, after text
}

// Compile runs the compile-time half of Run on q: the rewrite fixpoint
// (when Options.ApplyRewrites) and planSelect on every block, joined
// under the set operation if q is one. No step reads a table row or a
// row count. The analyzer-cache lookups it makes are counted into st.
func (p *Planner) Compile(q ast.Query, st *engine.Stats) (c *Compiled, err error) {
	defer engine.Contain("plan.Run", &err)
	if vc := p.An.Cache; vc != nil {
		h0, m0 := vc.Counters()
		defer func() {
			h1, m1 := vc.Counters()
			st.AddCache(h1-h0, m1-m0)
		}()
	}
	c = &Compiled{Query: q}
	run := q
	if p.Opts.ApplyRewrites {
		aps, rewritten, err := p.rewriteFixpoint(q)
		if err != nil {
			return nil, err
		}
		run = rewritten
		for _, ap := range aps {
			c.rewrites = append(c.rewrites, appliedTexts{ap: ap,
				desc: newText(ap.Description), before: newText(ap.Before), after: newText(ap.After)})
		}
	}
	switch x := run.(type) {
	case *ast.Select:
		if c.root, _, err = p.planSelect(x, c); err != nil {
			return nil, err
		}
	case *ast.SetOp:
		l, lcols, err := p.planSelect(x.Left, c)
		if err != nil {
			return nil, err
		}
		r, rcols, err := p.planSelect(x.Right, c)
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

// Render returns the plan tree as EXPLAIN shows it for one execution's
// host bindings — which decide nothing but how each access path binds —
// without executing anything: no iterator is built and no table row is
// read.
func (c *Compiled) Render(hosts map[string]value.Value) *Node { return c.root.render(hosts) }

// Rewrites returns the rewrites that fired, in firing order, quoting
// this execution's literals.
func (c *Compiled) Rewrites(hosts map[string]value.Value) []core.Applied {
	if len(c.rewrites) == 0 {
		return nil
	}
	out := make([]core.Applied, len(c.rewrites))
	for i, r := range c.rewrites {
		out[i] = r.ap
		out[i].Description, out[i].Before, out[i].After = r.desc.in(hosts), r.before.in(hosts), r.after.in(hosts)
	}
	return out
}

// CompileBits folds every option that changes what Compile produces
// into cache-key bits — SortDistinct among them: it picks the tree's
// duplicate-elimination operator, so two planners that differ only in
// it must never run each other's plan. The budgets only bound an
// execution and are excluded: the same Compiled serves them all.
func (o Options) CompileBits() uint64 {
	b := o.Core.Bits() << 3
	if o.ApplyRewrites {
		b |= 1
	}
	if o.WrittenJoinOrder {
		b |= 2
	}
	if o.SortDistinct {
		b |= 4
	}
	return b
}

// text is a user-visible rendering with slots for lifted literals: the
// string parts[0] + $names[0] + parts[1] + … . Every string EXPLAIN or
// Result.Rewrites shows that derives from the AST is rendered once per
// shape as a text and spliced per execution, so the hot path never
// calls SQL() and the output still shows the statement's own literals.
type text struct {
	parts []string // len(names)+1
	names []string
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
		if j > i+2 {
			t.parts = append(t.parts, s[start:i])
			t.names = append(t.names, s[i+1:j])
			start = j
		}
		i = j
	}
	t.parts = append(t.parts, s[start:])
	return t
}

// in renders t with each slot filled by the SQL spelling of the value
// hosts binds to its name; an unbound slot keeps its :$n spelling.
func (t text) in(hosts map[string]value.Value) string {
	if len(t.names) == 0 {
		return strings.Join(t.parts, "") // one part, or none for the zero text
	}
	var sb strings.Builder
	for i, name := range t.names {
		sb.WriteString(t.parts[i])
		if v, ok := hosts[name]; ok {
			sb.WriteString(v.String())
		} else {
			sb.WriteString(":" + name)
		}
	}
	sb.WriteString(t.parts[len(t.names)])
	return sb.String()
}

// filter is a predicate with its rendering (nil pred = no filter).
type filter struct {
	pred ast.Expr
	text text
}

// newFilter conjoins conj into one filter.
func newFilter(conj []ast.Expr) filter {
	if len(conj) == 0 {
		return filter{}
	}
	pred := ast.AndAll(conj...)
	return filter{pred: pred, text: newText(pred.SQL())}
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
// quoting the offending comparison, say) to show the literals hosts
// binds them to. Errors that mention no lifted name pass through.
func unlift(err error, hosts map[string]value.Value) error {
	if err == nil || !strings.Contains(err.Error(), ":$") {
		return err
	}
	return &unliftedError{msg: newText(err.Error()).in(hosts), err: err}
}
