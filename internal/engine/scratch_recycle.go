//go:build !poison

package engine

// Poisoned is false in every build but -tags poison: Scratch.Reset
// recycles its chunks and no pipeline runs under a Checker.
const Poisoned = false
