package lib

import "net/http"

// Used is called by main.
func Used() {}

// OnlyTest is called only by lib_test.go.
func OnlyTest() {}

// Nothing has no caller.
func Nothing() {}

// Oracle is allowlisted, but main calls it.
func Oracle() {}

// Ref is an allowlisted test oracle. Its unexported helper needs no line of
// its own; its exported helper does.
func Ref() int { return refHelper() + RefExported() }

func refHelper() int { return 1 }

// RefExported is reached only through Ref.
func RefExported() int { return 2 }

// Stringy is printed by main, so fmt calls String through fmt.Stringer.
type Stringy struct{}

func (Stringy) String() string { return "stringy" }

// Srv is registered with net/http, which calls ServeHTTP through
// http.Handler.
type Srv struct{}

func (Srv) ServeHTTP(http.ResponseWriter, *http.Request) {}

// Shape is a module interface; main calls Area only through it.
type Shape interface{ Area() float64 }

type Square struct{}

func (Square) Area() float64 { return 1 }

// Memo has a generic receiver: main calls Get through an instantiation,
// and only the test calls Unused.
type Memo[K comparable, V any] struct{ m map[K]V }

func (m *Memo[K, V]) Get(k K) V { return m.m[k] }

func (m *Memo[K, V]) Unused() int { return len(m.m) }
