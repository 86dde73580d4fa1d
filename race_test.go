//go:build race

package uniqopt_test

// The race detector's instrumentation keeps a statement's call off the
// stack, so a warm statement allocates it: one more than the bounds
// measured without the detector.
func init() { raceBuild = true }
