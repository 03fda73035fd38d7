package main

import "fmt"

// main is the root every negative hangs off, directly or through a path
// the call graph must see.
func main() {
	for _, f := range table {
		f()
	}
	var s shape = square{}
	bump := counter{}.bump
	bump()
	fmt.Println(pick(quick{}), s.area(), label{})
}

// table's initialiser is an edge of the package's init node, so fromVar
// is reached although no function names it.
var table = []func(){fromVar}

func fromVar() {}

// pick reaches quick.Quick through its generic constraint.
func pick[C interface{ Quick() C }](c C) C { return c.Quick() }

type quick struct{}

func (q quick) Quick() quick { return q }

// shape.area dispatches to square.area through a module interface.
type shape interface{ area() int }

type square struct{}

func (square) area() int { return 4 }

// counter.bump is reached only as a method value.
type counter struct{}

func (counter) bump() {}

// label.String is reached only through fmt: a runtime root.
type label struct{}

func (label) String() string { return "label" }
