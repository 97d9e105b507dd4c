// Command caller is a nested module that replaces the fixture module, as
// the benchmark harness replaces the repository's: its references count,
// and no finding is reported inside it.
package main

import "fixture/internal/hooks"

// Unused is exported and referenced by nothing, but it lies outside the
// fixture module's internal/ tree.
func Unused() {}

func main() {
	var s hooks.Stack[int]
	s.Push(hooks.ForCaller())
}
