package main

// orphan is called by nothing.
func orphan() { orphanHelper() } // want unreachable

// orphanHelper is called only by orphan, which nothing reaches.
func orphanHelper() {} // want unreachable

// Exported is no root: only the module's root package exports an API.
func Exported() {} // want unreachable

type widget struct{}

// size is a method nothing calls.
func (widget) size() int { return 0 } // want unreachable
