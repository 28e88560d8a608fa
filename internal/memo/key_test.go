package memo

import (
	"math"
	"testing"

	"capsim/internal/tech"
)

type keyPoint struct {
	X, Y float64
	Tags map[string]int
	Next *keyPoint
}

type keyNode struct{ next *keyNode }

// keyInner can point into itself: P at A shares the struct's address.
type keyInner struct {
	A int
	P *int
}

type keyA struct{ N int }

type keyB struct{ N int }

// TestKey pins the content-key encoding: equal data keys equal, any change
// in the data changes the key, and values only an address identifies, or of
// a kind no keyed input holds (float32, complex), have no key.
func TestKey(t *testing.T) {
	negZero := math.Copysign(0, -1)
	n := 3
	m := 3
	cyc := &keyNode{}
	cyc.next = cyc
	loop := map[string]any{}
	loop["self"] = loop
	shared := &keyPoint{X: 1}
	inner := keyInner{A: 3}
	inner.P = &inner.A

	cases := []struct {
		name string
		a, b []any
		same bool
	}{
		// FeatureSize's String prints two decimals ("0.18u"): a key that
		// went through it would serve 0.181's rows at 0.184.
		{"feature sizes", []any{tech.FeatureSize(0.181)}, []any{tech.FeatureSize(0.184)}, false},
		{"equal feature sizes", []any{tech.FeatureSize(0.18)}, []any{tech.Micron018}, true},
		{"negative zero", []any{negZero}, []any{0.0}, false},
		{"NaN", []any{math.NaN()}, []any{math.NaN()}, true},
		{"last float bit", []any{math.Nextafter(0.3, 1)}, []any{0.3}, false},
		{"nil and non-nil pointer", []any{(*int)(nil)}, []any{&n}, false},
		{"pointers by content", []any{&n}, []any{&m}, true},
		{"pointee changes", []any{&keyPoint{X: 1}}, []any{&keyPoint{X: 2}}, false},
		{"shared pointer twice", []any{[]*keyPoint{shared, shared}}, []any{[]*keyPoint{{X: 1}, {X: 1}}}, true},
		{"map order", []any{map[string]int{"a": 1, "b": 2, "c": 3}}, []any{map[string]int{"c": 3, "a": 1, "b": 2}}, true},
		{"map value", []any{map[string]int{"a": 1}}, []any{map[string]int{"a": 2}}, false},
		{"nil and empty slice", []any{[]int(nil)}, []any{[]int{}}, false},
		{"nil and empty map", []any{map[int]int(nil)}, []any{map[int]int{}}, false},
		{"int map order", []any{intMap(-1, 0, 64, 128)}, []any{intMap(128, 64, 0, -1)}, true},
		{"int map insertion order", []any{intMap(0, 128, -1, 64)}, []any{intMap(64, -1, 128, 0)}, true},
		{"slice order", []any{[]int{1, 2}}, []any{[]int{2, 1}}, false},
		{"same fields, other type", []any{keyA{1}}, []any{keyB{1}}, false},
		{"int widths", []any{int32(1)}, []any{int64(1)}, false},
		{"part boundaries", []any{"a|b", "c"}, []any{"a", "b|c"}, false},
		{"part count", []any{1}, []any{1, nil}, false},
		{"map entry boundaries", []any{map[int]int{1: 23}}, []any{map[int]int{12: 3}}, false},
		{"interior pointer", []any{&inner}, []any{&keyInner{A: 3, P: &n}}, true},
		{"nested struct", []any{keyPoint{Tags: map[string]int{"k": 1}, Next: &keyPoint{Y: 2}}},
			[]any{keyPoint{Tags: map[string]int{"k": 1}, Next: &keyPoint{Y: 2}}}, true},
	}
	for _, c := range cases {
		ka, okA := Key(c.a...)
		kb, okB := Key(c.b...)
		if !okA || !okB {
			t.Errorf("%s: no key (%v, %v)", c.name, okA, okB)
			continue
		}
		if (ka == kb) != c.same {
			t.Errorf("%s: keys %q and %q, want equal=%v", c.name, ka, kb, c.same)
		}
	}

	for name, part := range map[string]any{
		"float32":       float32(1),
		"complex":       complex(1, 2),
		"func":          func() {},
		"func field":    struct{ F func() }{func() {}},
		"chan":          make(chan int),
		"pointer cycle": cyc,
		"map cycle":     loop,
	} {
		if k, ok := Key(part); ok {
			t.Errorf("%s: keyed as %q, want no key", name, k)
		}
	}
	if _, ok := Key(struct{ F func() }{}); !ok {
		t.Error("nil func field: no key, want the nil encoded")
	}
}

// intMap returns a map from each key to itself, inserting in the order
// given.
func intMap(keys ...int) map[int]int {
	m := make(map[int]int, len(keys))
	for _, k := range keys {
		m[k] = k
	}
	return m
}
