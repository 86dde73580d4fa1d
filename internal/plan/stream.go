package plan

import (
	"context"
	"time"

	"uniqopt/internal/engine"
	"uniqopt/internal/eval"
	"uniqopt/internal/value"
)

// Streaming execution of a selectPlan: the same physical plan the
// materializing executor runs, assembled as a pull-based iterator
// pipeline (engine/stream.go) and drained once at the root. Only
// blocking state — hash-join build tables, distinct tables, sort
// buffers, the buffered product inner — is ever resident, so a memory
// budget bounds the pipeline's live footprint instead of the sum of
// every operator's output.

// nodeIter instruments one pipeline edge: every batch pulled through
// it is attributed to its plan Node (rows out, batch count, cumulative
// wall time of the subtree rooted here). finalizeStream later converts
// cumulative times to the per-operator self times EXPLAIN ANALYZE
// reports.
type nodeIter struct {
	child engine.Iterator
	node  *Node
}

func (it *nodeIter) Cols() []string { return it.child.Cols() }

// SizeHint forwards the child's bound so downstream hash operators
// (join build tables, distinct tables) still presize when this
// instrumentation wrapper sits between them.
func (it *nodeIter) SizeHint() int {
	if h, ok := it.child.(engine.SizeHinter); ok {
		return h.SizeHint()
	}
	return 0
}

func (it *nodeIter) Next(ctx context.Context) (engine.Batch, error) {
	t0 := time.Now()
	b, err := it.child.Next(ctx)
	it.node.TimeNanos += time.Since(t0).Nanoseconds()
	if b != nil {
		it.node.RowsOut += int64(len(b))
		it.node.Batches++
	}
	return b, err
}

func (it *nodeIter) Close() error { return it.child.Close() }

// finalizeStream finishes a drained streaming plan tree's metrics:
// marks every node analyzed, derives RowsIn from the children's
// emitted rows (leaves keep the table cardinality preset at build
// time), and converts cumulative subtree times into per-operator self
// times. Returns the node's cumulative time.
func finalizeStream(n *Node) int64 {
	var childCum, childRows int64
	for _, c := range n.Children {
		childCum += finalizeStream(c)
		childRows += c.RowsOut
	}
	n.Analyzed = true
	if len(n.Children) > 0 {
		n.RowsIn = childRows
	}
	cum := n.TimeNanos
	if self := cum - childCum; self > 0 {
		n.TimeNanos = self
	} else {
		n.TimeNanos = 0
	}
	return cum
}

// execSelectStream executes a selectPlan as one streaming pipeline.
// Plan lines, tree shape, and result rows are identical to the
// materializing path; only the execution strategy differs.
func (p *Planner) execSelectStream(ctx context.Context, sp *selectPlan, hosts map[string]value.Value, res *Result) (*engine.Relation, *Node, error) {
	st := &res.Stats
	envProto := &eval.Env{
		Cols:   map[string]value.Value{},
		Hosts:  hosts,
		Exists: p.naiveExists(ctx, hosts, res),
		In:     p.naiveIn(ctx, hosts, res),
	}
	// roots tracks the pipeline fragments not yet owned by a parent
	// operator, so a mid-assembly error can release everything.
	var roots []engine.Iterator
	fail := func(err error) (*engine.Relation, *Node, error) {
		for _, it := range roots {
			if it != nil {
				it.Close()
			}
		}
		return nil, nil, err
	}
	wrap := func(it engine.Iterator, op, detail string, rowsIn int64, children []*Node) (engine.Iterator, *Node) {
		n := &Node{Op: op, Detail: detail, Children: children, RowsIn: rowsIn}
		return &nodeIter{child: it, node: n}, n
	}

	type streamTable struct {
		it   engine.Iterator
		node *Node
	}
	var tables []streamTable
	for _, t := range sp.tables {
		var it engine.Iterator
		var node *Node
		// Same binding step as the materializing path: the symbolic
		// access plan resolves host variables here, falling back to a
		// full scan plus the whole pushed filter when it cannot.
		dec := t.ap.bind(t.tbl, t.corr, hosts)
		f := t.pushResidual
		if dec == nil {
			f = t.push
		}
		if dec != nil {
			base, err := dec.stream(st)
			if err != nil {
				return fail(err)
			}
			it, node = wrap(base, dec.op, dec.detail, int64(t.tbl.Len()), nil)
			res.Plan = append(res.Plan, dec.op+"("+dec.detail+")")
		} else {
			detail := t.tbl.Schema.Name + " as " + t.corr
			it, node = wrap(engine.NewTableIter(st, t.tbl, t.corr), "Scan", detail, int64(t.tbl.Len()), nil)
			res.Plan = append(res.Plan, "Scan("+detail+")")
		}
		roots = append(roots, it)
		if f.pred != nil {
			detail := f.text.in(hosts)
			it, node = wrap(engine.NewFilterIter(st, it, f.pred, envProto),
				"Filter", detail, 0, []*Node{node})
			roots[len(roots)-1] = it
			res.Plan = append(res.Plan, "  Filter("+detail+")")
		}
		tables = append(tables, streamTable{it: it, node: node})
	}

	// Left-deep join tree over the same join order and keys the
	// materializing path uses; builds on the right, probes the left.
	cur, curNode := tables[0].it, tables[0].node
	for k, t := range tables[1:] {
		j := sp.joins[k]
		if len(j.lk) > 0 && j.buildLeft {
			// Same role swap as the materializing path: the bounded
			// prefix becomes the (tiny) build side, the new table
			// streams through as probe, so the blocking state stays
			// within any memory budget.
			jit, err := engine.NewHashJoinIter(st, t.it, cur, j.rk, j.lk)
			if err != nil {
				return fail(err)
			}
			cur, curNode = wrap(jit, "HashJoin", j.detail, 0, []*Node{t.node, curNode})
			curNode.Notes = append(curNode.Notes, buildPrefixNote)
			res.Plan = append(res.Plan, "HashJoin("+j.detail+")")
		} else if len(j.lk) > 0 {
			jit, err := engine.NewHashJoinIter(st, cur, t.it, j.lk, j.rk)
			if err != nil {
				return fail(err)
			}
			cur, curNode = wrap(jit, "HashJoin", j.detail, 0, []*Node{curNode, t.node})
			res.Plan = append(res.Plan, "HashJoin("+j.detail+")")
		} else {
			cur, curNode = wrap(engine.NewProductIter(st, cur, t.it),
				"Product", "", 0, []*Node{curNode, t.node})
			res.Plan = append(res.Plan, "Product")
		}
		if note := j.bound.in(hosts); note != "" {
			curNode.Notes = append(curNode.Notes, note)
		}
		roots[0], roots[k+1] = cur, nil
	}

	if sp.residual.pred != nil {
		env := &eval.Env{Cols: map[string]value.Value{}, Hosts: hosts,
			Scope: sp.scope, Exists: p.naiveExists(ctx, hosts, res),
			In: p.naiveIn(ctx, hosts, res)}
		detail := sp.residual.text.in(hosts)
		cur, curNode = wrap(engine.NewFilterIter(st, cur, sp.residual.pred, env),
			"Filter", detail, 0, []*Node{curNode})
		roots[0] = cur
		res.Plan = append(res.Plan, "Filter("+detail+")")
	}

	pit, err := engine.NewProjectIter(st, cur, sp.cols)
	if err != nil {
		return fail(err)
	}
	cur, curNode = wrap(pit, "Project", sp.colList, 0, []*Node{curNode})
	roots[0] = cur
	res.Plan = append(res.Plan, "Project("+sp.colList+")")

	if sp.distinct {
		op := "DistinctSort"
		var dit engine.Iterator
		if p.Opts.HashDistinct {
			op = "DistinctHash"
			dit = engine.NewDistinctHashIter(st, cur)
		} else {
			dit = engine.NewDistinctSortIter(st, cur)
		}
		cur, curNode = wrap(dit, op, "", 0, []*Node{curNode})
		roots[0] = cur
		res.Plan = append(res.Plan, op)
	}

	// Drain closes the pipeline (success or error), so the roots
	// cleanup is no longer needed past this point.
	rel, err := engine.Drain(ctx, st, cur)
	if err != nil {
		return nil, nil, err
	}
	finalizeStream(curNode)
	attachOrderNotes(curNode, sp, hosts)
	return rel, curNode, nil
}
