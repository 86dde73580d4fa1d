// Package engine is the golden fixture for the ctxflow analyzer: it
// mirrors the real engine's import path so the analyzer treats it as
// an operator package.
package engine

import "context"

type Relation struct{ Rows []int }

// GoodThreaded forwards its context: no finding.
func GoodThreaded(ctx context.Context, rel *Relation) error {
	return helper(ctx, rel)
}

// GoodPolled polls its context directly: no finding.
func GoodPolled(ctx context.Context, rel *Relation) error {
	for range rel.Rows {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// GoodDerived shadows ctx in a nested scope but derives the new one
// from the parameter: deadline and cancellation still flow.
func GoodDerived(ctx context.Context, rel *Relation) error {
	if len(rel.Rows) > 0 {
		ctx := context.WithValue(ctx, ctxKey{}, 1)
		return helper(ctx, rel)
	}
	return helper(ctx, rel)
}

// GoodNilGuard re-binds a nil parameter to Background, the accepted
// defensive idiom.
func GoodNilGuard(ctx context.Context, rel *Relation) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return helper(ctx, rel)
}

// GoodNoParam has no context parameter, so manufacturing a root
// context is its only option.
func GoodNoParam(rel *Relation) error {
	return helper(context.Background(), rel)
}

// BadDropped throws its context away at the signature.
func BadDropped(_ context.Context, rel *Relation) error { // want "discards its context.Context parameter"
	return helper(context.Background(), rel)
}

// BadUnused accepts a context and then ignores it entirely.
func BadUnused(ctx context.Context, rel *Relation) error { // want "never uses its context parameter"
	for range rel.Rows {
	}
	return nil
}

// BadShadowed replaces the caller's context with a detached root; the
// analyzer reports both the shadow and the Background call.
func BadShadowed(ctx context.Context, rel *Relation) error {
	_ = ctx.Err()
	if len(rel.Rows) > 0 {
		ctx := context.Background() // want "shadows its context parameter" "calls context.Background"
		return helper(ctx, rel)
	}
	return helper(ctx, rel)
}

// BadDetachedCall passes a fresh TODO downward instead of ctx.
func BadDetachedCall(ctx context.Context, rel *Relation) error {
	_ = ctx.Err()
	return helper(context.TODO(), rel) // want "calls context.TODO"
}

// dropIter discards the context its Next receives, so cancellation and
// budget checks can never reach this stage.
type dropIter struct{}

func (it *dropIter) Next(_ context.Context) ([]int, error) { // want "discards its context.Context parameter"
	return nil, nil
}

// idleIter names its context but never polls or forwards it — the
// stage runs detached just the same.
type idleIter struct{}

func (it *idleIter) Next(ctx context.Context) ([]int, error) { // want "never uses its context parameter"
	return nil, nil
}

type ctxKey struct{}

func helper(ctx context.Context, rel *Relation) error {
	_ = ctx
	_ = rel
	return nil
}
