package main

// benchOnly models a function only a bench/ driver calls.
//
//starklint:ignore unreachable bench/fixture.go drives it
func benchOnly() { benchHelper() }

// benchHelper is alive through benchOnly's suppression and needs no
// directive of its own.
func benchHelper() {}

var _ = reachedAnyway

// reachedAnyway has a caller among the roots, so its directive is stale.
//
//starklint:ignore unreachable bench/fixture.go drives it
func reachedAnyway() {} // want starklint
