// Package hooks is the testonly fixture: its import path contains
// /internal/, so an exported function that only tests reference is a
// finding, while one the nested caller module uses, methods that satisfy an
// interface, a generic method used through an instantiation and an
// allow-annotated hook stay clean.
package hooks

// OnlyTests is referenced by hooks_test.go alone: one finding.
func OnlyTests() int { return 1 }

// ForCaller is referenced only by the nested caller module, whose go.mod
// replaces this module: clean.
func ForCaller() int { return 2 }

// Sizer is an interface the loaded code names.
type Sizer interface{ Size() int }

// Box satisfies Sizer.
type Box struct{ n int }

// Size is never called by name, but Box implements Sizer: clean.
func (b Box) Size() int { return b.n }

// Stack is generic; the caller module uses Stack[int].
type Stack[T any] struct{ items []T }

// Push is used only through the instantiation Stack[int]: clean.
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Hook is a deliberate test hook another package's tests need.
//
//colibri:allow(testonly) — another package's tests drive it
func Hook() int { return 3 }
