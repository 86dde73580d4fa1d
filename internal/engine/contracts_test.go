package engine

import (
	"context"
	"strings"
	"testing"

	"uniqopt/internal/value"
)

// fakeIter emits n batches of one two-cell row each. With reuse set it
// writes every batch into the same row, the one it handed out last; with
// charge set it charges each batch to gov and never gives it back.
type fakeIter struct {
	n      int
	reuse  bool
	charge bool
	gov    *Governor
	row    value.Row
}

func (f *fakeIter) Cols() []string { return []string{"A", "B"} }

func (f *fakeIter) Next(context.Context) (Batch, error) {
	if f.n == 0 {
		return nil, nil
	}
	f.n--
	if f.row == nil || !f.reuse {
		f.row = make(value.Row, 2)
	}
	f.row[0], f.row[1] = value.Int(int64(f.n)), value.String_("x")
	if f.charge {
		if err := f.gov.Charge(1, rowBytes(f.row)); err != nil {
			return nil, err
		}
	}
	return Batch{f.row}, nil
}

func (f *fakeIter) Close() error { return nil }

// violation runs f and returns the message of the *ContractViolation it
// panicked with, or "" if it returned.
func violation(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(*ContractViolation)
			if !ok {
				panic(r)
			}
			msg = v.Msg
		}
	}()
	f()
	return ""
}

// drainAll pulls it to the end of its stream.
func drainAll(t *testing.T, it Iterator) {
	t.Helper()
	for {
		b, err := it.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return
		}
	}
}

// TestCheckerPassesAWellBehavedPipeline is the control: fresh batches,
// read-only consumers, everything closed and released.
func TestCheckerPassesAWellBehavedPipeline(t *testing.T) {
	gov := &Governor{}
	c := NewChecker(gov)
	leaves := make([]*fakeIter, 10) // more than the checker keeps in its own allocation
	for i := range leaves {
		leaves[i] = &fakeIter{n: 3}
		it := c.Wrap(leaves[i])
		if msg := violation(t, func() { drainAll(t, it); it.Close(); it.Close() }); msg != "" {
			t.Fatalf("leaf %d: %s", i, msg)
		}
	}
	if msg := violation(t, func() { c.Verify(nil) }); msg != "" {
		t.Fatal(msg)
	}
	// A result leaves its own rows charged, and no more.
	res := &Relation{Rows: []value.Row{{value.Int(1), value.String_("x")}}}
	gov.Charge(1, rowBytes(res.Rows[0]))
	if msg := violation(t, func() { c.Verify(res) }); msg != "" {
		t.Fatal(msg)
	}
}

// TestCheckerReportsEachMisbehaviour feeds the checker one broken
// iterator or consumer per contract, and each must be reported.
func TestCheckerReportsEachMisbehaviour(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
		want string
	}{
		{"next after close", func(t *testing.T) {
			it := NewChecker(nil).Wrap(&fakeIter{n: 2})
			it.Close()
			it.Next(ctx)
		}, "Next called on *engine.fakeIter after Close"},
		{"never closed", func(t *testing.T) {
			c := NewChecker(nil)
			closed, leaked := c.Wrap(&fakeIter{n: 1}), c.Wrap(&fakeIter{n: 1})
			closed.Close()
			drainAll(t, leaked)
			c.Verify(nil)
		}, "*engine.fakeIter was never closed"},
		{"unreleased governor charge", func(t *testing.T) {
			gov := &Governor{}
			c := NewChecker(gov)
			it := c.Wrap(&fakeIter{n: 2, charge: true, gov: gov})
			drainAll(t, it)
			it.Close()
			c.Verify(nil)
		}, "the governor holds 2 rows"},
		{"consumer writes a pulled row", func(t *testing.T) {
			it := NewChecker(nil).Wrap(&fakeIter{n: 2})
			b, _ := it.Next(ctx)
			b[0][1] = value.Int(7)
			it.Next(ctx)
		}, "its consumer wrote into it"},
		{"consumer writes a pulled row, seen at Close", func(t *testing.T) {
			it := NewChecker(nil).Wrap(&fakeIter{n: 2})
			b, _ := it.Next(ctx)
			it.Next(ctx)
			b[0][0] = value.Null
			it.Close()
		}, "batch 0 of *engine.fakeIter changed after handoff (checked at Close)"},
		{"consumer writes a pulled row after its producer closed", func(t *testing.T) {
			c := NewChecker(nil)
			it := c.Wrap(&fakeIter{n: 1})
			b, _ := it.Next(ctx)
			it.Close()
			b[0][0] = value.Int(-1)
			c.Verify(nil)
		}, "batch 0 of *engine.fakeIter changed after handoff (checked when the execution ended)"},
		{"producer rewrites its previous batch", func(t *testing.T) {
			it := NewChecker(nil).Wrap(&fakeIter{n: 2, reuse: true})
			it.Next(ctx)
			it.Next(ctx)
		}, "its producer rewrote it"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := violation(t, func() { tc.run(t) })
			if !strings.Contains(msg, tc.want) {
				t.Errorf("violation %q, want one containing %q", msg, tc.want)
			}
		})
	}
}

// TestContainPassesViolationsOn: a broken contract must fail the test
// that found it, not become an *InternalError an error-path test expects
// anyway.
func TestContainPassesViolationsOn(t *testing.T) {
	var err error
	msg := violation(t, func() {
		defer Contain("test", &err)
		violate("broken")
	})
	if msg != "broken" || err != nil {
		t.Errorf("violation %q, err %v: Contain must let the violation through", msg, err)
	}
}
