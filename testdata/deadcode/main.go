// Command fixture is the dead-code scan's test module: each declaration in
// package lib is one case of TestDeadScanFixture.
package main

import (
	"fmt"
	"net/http"

	"fixture/lib"
)

func main() {
	lib.Used()
	lib.Oracle()
	fmt.Println(lib.Stringy{})
	http.Handle("/", lib.Srv{})
	var s lib.Shape = lib.Square{}
	fmt.Println(s.Area())
	m := &lib.Memo[string, int]{}
	m.Get("a")
}
