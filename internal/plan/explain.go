package plan

import (
	"fmt"
	"regexp"
	"strings"
	"time"
)

// Node is one operator of a rendered physical plan tree. EXPLAIN
// renders the bare tree; EXPLAIN ANALYZE additionally carries
// per-operator wall time, rows in/out and batch counts recorded during
// a real execution.
type Node struct {
	// Op is the operator name (Scan, IndexScan, Filter, HashJoin,
	// IndexJoin, Product, Project, DistinctSort, DistinctHash,
	// IntersectSortMerge, ExceptSortMerge).
	Op string `json:"op"`
	// Detail is the operator's argument rendering, e.g. the scanned
	// table or the join predicate.
	Detail string `json:"detail,omitempty"`
	// Children are the operator's inputs (left input first).
	Children []*Node `json:"children,omitempty"`
	// Notes carry the planner's justifications: on a block's root the
	// join order and why its start table starts, on a join the
	// uniqueness bound of its step, a flipped build side or an
	// existence-only probe.
	Notes []string `json:"notes,omitempty"`

	// Analyzed reports that the metrics below were recorded from a
	// real execution (false for plan-only EXPLAIN).
	Analyzed bool `json:"analyzed"`
	// RowsIn / RowsOut are the operator's input and output
	// cardinalities.
	RowsIn  int64 `json:"rows_in"`
	RowsOut int64 `json:"rows_out"`
	// TimeNanos is the operator's wall time, including the time of any
	// subquery probes it evaluated (but not its children's time).
	TimeNanos int64 `json:"time_ns"`
	// Parallel is always false: no operator runs on more than one
	// goroutine. It stays only because the repository benchmark reads it.
	Parallel bool `json:"parallel,omitempty"`
	// Batches counts the batches the operator emitted.
	Batches int64 `json:"batches,omitempty"`
}

// child returns the i-th input's node; a nil node (an execution that is
// not being analyzed) has nil children.
func (n *Node) child(i int) *Node {
	if n == nil {
		return nil
	}
	return n.Children[i]
}

// Format renders the tree as indented text, one operator per line,
// children two spaces deeper. With analyze=true the per-operator
// metrics are appended in a bracketed suffix.
func (n *Node) Format(analyze bool) string {
	var sb strings.Builder
	n.format(&sb, 0, analyze)
	return sb.String()
}

func (n *Node) format(sb *strings.Builder, depth int, analyze bool) {
	if n == nil {
		return
	}
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.Op)
	if n.Detail != "" {
		fmt.Fprintf(sb, "(%s)", n.Detail)
	}
	if analyze && n.Analyzed {
		fmt.Fprintf(sb, " [in=%d out=%d time=%s", n.RowsIn, n.RowsOut, fmtDuration(n.TimeNanos))
		if n.Batches > 0 {
			fmt.Fprintf(sb, " batches=%d", n.Batches)
		}
		sb.WriteByte(']')
	}
	sb.WriteByte('\n')
	for _, note := range n.Notes {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString("-- ")
		sb.WriteString(note)
		sb.WriteByte('\n')
	}
	for _, c := range n.Children {
		c.format(sb, depth+1, analyze)
	}
}

// fmtDuration renders nanoseconds compactly and stably (fixed unit
// choice per magnitude, one decimal).
func fmtDuration(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", ns)
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}

// volatileRe matches the fields of an ANALYZE rendering that vary
// between otherwise-identical executions: wall times, and batch counts
// (which depend on the configured batch size).
var volatileRe = regexp.MustCompile(`( time=[0-9.]+(?:ns|µs|ms|s))|( batches=[0-9]+)`)

// ScrubVolatile canonicalizes an ANALYZE rendering for comparison and
// golden files: wall times become time=? and batch markers are dropped.
// Executions of the same query must render byte-identically after
// scrubbing whatever the batch size.
func ScrubVolatile(s string) string {
	return volatileRe.ReplaceAllStringFunc(s, func(m string) string {
		if strings.Contains(m, "time=") {
			return " time=?"
		}
		return ""
	})
}

// AllNodes returns the tree's nodes in pre-order (root first).
func (n *Node) AllNodes() []*Node {
	if n == nil {
		return nil
	}
	out := []*Node{n}
	for _, c := range n.Children {
		out = append(out, c.AllNodes()...)
	}
	return out
}
