//go:build !poison

package engine

// poisoned is false in every build but -tags poison: Scratch.Reset
// recycles its chunks.
const poisoned = false
