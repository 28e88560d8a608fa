package lib

import "testing"

func TestOnlyTest(t *testing.T) {
	OnlyTest()
	var m Memo[int, int]
	m.Unused()
	Ref()
}
