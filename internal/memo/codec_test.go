package memo

import (
	"errors"
	"os"
	"testing"
)

// probe reads key through PersistDo as a V and reports whether the entry
// served it. Its compute fails, so a miss publishes nothing.
func probe[V any](s *Store, key string) bool {
	served := true
	PersistDo(s, key, func() (V, error) {
		served = false
		var zero V
		return zero, errors.New("miss")
	})
	return served
}

// TestRowLayoutChangeIsMiss: the positional encoding names no fields, so
// the layout fingerprint is what keeps an entry written for one struct
// layout from being read under another. A changed layout reads as a miss
// and removes the entry; an equal layout under another type name hits.
func TestRowLayoutChangeIsMiss(t *testing.T) {
	type row struct{ TPI, Miss []float64 }
	cases := map[string]struct {
		read func(*Store, string) bool
		hit  bool
	}{
		"same":      {probe[row], true},
		"renamed":   {probe[struct{ TPI, Misses []float64 }], false},
		"added":     {probe[struct{ TPI, Miss, Extra []float64 }], false},
		"reordered": {probe[struct{ Miss, TPI []float64 }], false},
		"retyped":   {probe[struct{ TPI, Miss []int64 }], false},
		"other name, same layout": {probe[struct {
			TPI  []float64
			Miss []float64
		}], true},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			s := testStore(t)
			if _, err := PersistDo(s, "k", func() (row, error) {
				return row{TPI: []float64{1, 2}, Miss: []float64{3}}, nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := c.read(s, "k"); got != c.hit {
				t.Fatalf("served=%v, want %v", got, c.hit)
			}
			_, err := os.Stat(s.path("k"))
			if c.hit != (err == nil) {
				t.Errorf("entry present=%v after a read that served=%v", err == nil, c.hit)
			}
		})
	}
}

// TestRowCodecRejectsNonCanonical: every input the decoder accepts is the
// one encoding of its value, so a longer varint, a bool other than 0/1, map
// keys repeated or out of the order of their bytes, an out-of-range integer,
// a length past the input and trailing bytes are all rejected.
func TestRowCodecRejectsNonCanonical(t *testing.T) {
	type row struct {
		On   bool
		N    int8
		Keys map[int]int
		S    string
	}
	good := []byte{1, 2, 3, 2, 10, 4, 20, 1, 'x'} // {true, 1, {1:5, 2:10}, "x"}
	if v, ok := DecodeValue[row](good); !ok || v.N != 1 || v.Keys[2] != 10 || v.S != "x" {
		t.Fatalf("canonical input rejected or misread: %+v ok=%v", v, ok)
	}
	// Map entries go in the order of their key bytes: 0 ([0]) before -1 ([1]).
	if v, ok := DecodeValue[row]([]byte{1, 2, 3, 0, 20, 1, 10, 1, 'x'}); !ok || v.Keys[-1] != 5 || v.Keys[0] != 10 {
		t.Fatalf("canonical input with a negative key rejected or misread: %+v ok=%v", v, ok)
	}
	bad := map[string][]byte{
		"bool 2":           {2, 2, 3, 2, 10, 4, 20, 1, 'x'},
		"long varint":      {1, 0x82, 0x00, 3, 2, 10, 4, 20, 1, 'x'},
		"int8 overflow":    {1, 0x80, 0x02, 3, 2, 10, 4, 20, 1, 'x'},
		"keys unordered":   {1, 2, 3, 4, 20, 2, 10, 1, 'x'},
		"keys repeated":    {1, 2, 3, 2, 10, 2, 20, 1, 'x'},
		"keys by value":    {1, 2, 3, 1, 10, 0, 20, 1, 'x'}, // -1 then 0: numeric order, not byte order
		"map past input":   {1, 2, 0x80, 0x01, 2, 10, 4, 20, 1, 'x'},
		"string too long":  {1, 2, 3, 2, 10, 4, 20, 2, 'x'},
		"trailing byte":    append(append([]byte(nil), good...), 0),
		"truncated":        good[:len(good)-1],
		"varint overflows": {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, raw := range bad {
		if v, ok := DecodeValue[row](raw); ok {
			t.Errorf("%s: accepted as %+v", name, v)
		}
	}
}
