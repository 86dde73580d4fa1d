//go:build poison

package engine

// poisoned makes Scratch.Reset abandon its chunks and fill what they
// handed out with a sentinel (go test -tags poison ./...).
const poisoned = true
