// Row codec: how PersistDo writes a value into a study-cache entry.
//
// A value is written positionally, field by field in declaration order,
// with no names or type descriptors. Instead the payload starts with an
// 8-byte fingerprint of the value's layout (kinds, array lengths and field
// names, not type names), so a reader compares 8 bytes and otherwise knows
// the layout from its own V. Each kind has one encoding:
//
//   - bool: one byte, 0 or 1
//   - signed integers: zig-zag varint; unsigned integers: varint
//   - float64: its IEEE-754 bits, 8 bytes little-endian, so ±Inf, NaN
//     payloads and −0 round-trip exactly
//   - string: varint length, then the bytes
//   - slice: varint 0 for nil, else length+1, then the elements; a map
//     likewise, its entries in increasing key order (integer keys only)
//   - array: the elements; struct: its fields, all of which must be exported
//
// The encoding is canonical: the decoder accepts only minimal varints, 0/1
// bools, strictly increasing map keys and no trailing bytes, so any input it
// accepts re-encodes to the same bytes, and two writers of one value publish
// one file. It checks every length against the bytes left before it
// allocates, so a corrupt length cannot make it allocate more than its input
// describes.
//
// Neither gob nor JSON: every entry file would be its own gob stream, so
// each read would rebuild gob's type descriptors and decode engine, which
// cost more than the rest of the read; JSON cannot carry the ±Inf and NaN
// the rows contain.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
)

// fingerprints caches each value type's layout fingerprint
// (reflect.Type -> [8]byte).
var fingerprints sync.Map

// fingerprint returns t's layout fingerprint: the first 8 bytes of the
// SHA-256 of describe(t). It panics on a type the codec does not cover,
// which only a new row type can bring about.
func fingerprint(t reflect.Type) [8]byte {
	if fp, ok := fingerprints.Load(t); ok {
		return fp.([8]byte)
	}
	sum := sha256.Sum256(describe(nil, t))
	var fp [8]byte
	copy(fp[:], sum[:])
	fingerprints.Store(t, fp)
	return fp
}

// describe appends t's layout: everything the encoding depends on (kinds,
// array lengths, field names and order) and nothing it does not (type
// names, struct tags).
func describe(b []byte, t reflect.Type) []byte {
	switch k := t.Kind(); {
	case isInt(t) || k == reflect.Bool || k == reflect.Float64 || k == reflect.String:
		return append(b, k.String()...)
	case k == reflect.Slice && minSize(t.Elem()) > 0:
		return describe(append(b, "[]"...), t.Elem())
	case k == reflect.Array:
		return describe(fmt.Appendf(b, "[%d]", t.Len()), t.Elem())
	case k == reflect.Map && isInt(t.Key()):
		b = describe(append(b, "map["...), t.Key())
		return describe(append(b, ']'), t.Elem())
	case k == reflect.Struct:
		b = append(b, "struct{"...)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("memo: row type %v has unexported field %s", t, f.Name))
			}
			b = append(describe(append(append(b, f.Name...), ' '), f.Type), ';')
		}
		return append(b, '}')
	}
	panic(fmt.Sprintf("memo: row codec does not cover %v", t))
}

func isInt(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return true
	}
	return false
}

// minSize is the fewest bytes a value of t encodes to.
func minSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Float64:
		return 8
	case reflect.Array:
		return t.Len() * minSize(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += minSize(t.Field(i).Type)
		}
		return n
	}
	return 1
}

// marshalRow encodes v behind its layout fingerprint.
func marshalRow[V any](v V) []byte {
	rv := reflect.ValueOf(&v).Elem()
	fp := fingerprint(rv.Type())
	return appendValue(fp[:], rv)
}

// unmarshalRow decodes what marshalRow wrote for a V. ok is false when the
// fingerprint is another layout's or any byte is malformed.
func unmarshalRow[V any](b []byte) (v V, ok bool) {
	rv := reflect.ValueOf(&v).Elem()
	fp := fingerprint(rv.Type())
	if len(b) < len(fp) || string(b[:len(fp)]) != string(fp[:]) || !decodeValue(b[len(fp):], rv) {
		var zero V
		return zero, false
	}
	return v, true
}

// float64s is the type most row bytes are: its slices skip per-element
// reflection, which saves about a quarter of a warm read
// (BenchmarkStudyCacheRead in internal/experiments).
var float64s = reflect.TypeOf([]float64(nil))

// appendValue appends v's encoding to b. v's type has passed describe.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		if v.Type() == float64s {
			for _, f := range v.Interface().([]float64) {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
			}
			return b
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Map:
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
		for _, k := range keys {
			b = appendValue(appendValue(b, k), v.MapIndex(k))
		}
		return b
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendValue(b, v.Field(i))
		}
		return b
	}
	panic(fmt.Sprintf("memo: row codec does not cover %v", v.Type()))
}

func keyLess(a, b reflect.Value) bool {
	if a.CanInt() {
		return a.Int() < b.Int()
	}
	return a.Uint() < b.Uint()
}

// decodeValue decodes b into v, which holds its zero value and whose type
// has passed describe. It reports whether b was exactly one canonical
// encoding.
func decodeValue(b []byte, v reflect.Value) bool {
	d := decoder{b: b}
	d.value(v)
	return !d.bad && len(d.b) == 0
}

// decoder reads an encoding front to back. The first malformed byte sets
// bad and empties b, so every later read fails at once.
type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) fail() {
	d.bad, d.b = true, nil
}

// uvarint reads a minimal varint: a longer form of the same number would
// not re-encode to its own bytes.
func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return x
}

// count reads a slice or map prefix: -1 for nil, else a length whose
// elements, of at least min bytes each, fit in what is left.
func (d *decoder) count(min int) int {
	x := d.uvarint()
	if x == 0 {
		return -1
	}
	if x-1 > uint64(len(d.b)/min) {
		d.fail()
		return -1
	}
	return int(x - 1)
}

func (d *decoder) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if len(d.b) == 0 || d.b[0] > 1 {
			d.fail()
			return
		}
		v.SetBool(d.b[0] == 1)
		d.b = d.b[1:]
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u := d.uvarint()
		x := int64(u >> 1)
		if u&1 != 0 {
			x = ^x
		}
		if v.OverflowInt(x) {
			d.fail()
			return
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := d.uvarint()
		if v.OverflowUint(x) {
			d.fail()
			return
		}
		v.SetUint(x)
	case reflect.Float64:
		if len(d.b) < 8 {
			d.fail()
			return
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.b)))
		d.b = d.b[8:]
	case reflect.String:
		n := d.uvarint()
		if n > uint64(len(d.b)) {
			d.fail()
			return
		}
		v.SetString(string(d.b[:n]))
		d.b = d.b[n:]
	case reflect.Slice:
		n := d.count(minSize(v.Type().Elem()))
		if n < 0 {
			return
		}
		if v.Type() == float64s {
			s := make([]float64, n)
			for i := range s {
				s[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
			}
			d.b = d.b[8*n:]
			v.Set(reflect.ValueOf(s))
			return
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n && !d.bad; i++ {
			d.value(s.Index(i))
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len() && !d.bad; i++ {
			d.value(v.Index(i))
		}
	case reflect.Map:
		t := v.Type()
		n := d.count(minSize(t.Key()) + minSize(t.Elem()))
		if n < 0 {
			return
		}
		m := reflect.MakeMapWithSize(t, n)
		var prev reflect.Value
		for i := 0; i < n && !d.bad; i++ {
			k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			d.value(k)
			if i > 0 && !keyLess(prev, k) {
				d.fail()
				return
			}
			d.value(e)
			m.SetMapIndex(k, e)
			prev = k
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField() && !d.bad; i++ {
			d.value(v.Field(i))
		}
	}
}
