//go:build poison

package uniqopt_test

// A poisoned Scratch.Reset reuses no chunk, so an execution allocates
// its scratch afresh: allocation bounds measured on the recycling build
// do not hold.
func init() { poisonBuild = true }
