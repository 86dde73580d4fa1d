//go:build poison

package engine

// Poisoned makes Scratch.Reset abandon its chunks and fill what they
// handed out with a sentinel, and makes the planner run every pipeline
// under a Checker (go test -tags poison ./...).
const Poisoned = true
