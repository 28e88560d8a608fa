// The content encoding: how memo turns a value into bytes by what it holds.
// Key (key.go) writes it for every part of a memo key, behind a header that
// names the part's type; PersistDo writes it for a study row, behind the
// row's layout fingerprint. One encoder writes both, so a key and a row
// encode one value the same way.
//
// A value is written positionally, field by field in declaration order,
// with no names or type descriptors: its type alone tells where it ends, so
// the encoding is prefix-free and no two values of one type share bytes.
// Each kind has one encoding:
//
//   - bool: one byte, 0 or 1
//   - signed integers: zig-zag varint; unsigned integers: varint
//   - float64: its IEEE-754 bits, 8 bytes little-endian, so ±Inf, NaN
//     payloads and −0 round-trip exactly and no digit is rounded away
//   - string: varint length, then the bytes
//   - slice: 0 for nil, else varint length+1, then the elements; a map
//     likewise, its entries (key, then value) in increasing order of their
//     key encodings' bytes, whatever the key type
//   - array: the elements; struct: its fields
//   - pointer: 0 for nil, else 1, then what it points to (never an address)
//   - interface: 0 for nil, else 1, the dynamic type's package path and
//     name as strings, then the value, so two values with equal fields but
//     different types differ
//
// Pointers, interfaces, uintptrs and unexported fields reach the encoder
// only through keys; it never calls String or GoString, whose display forms
// (tech.FeatureSize's two decimals) would merge inputs the model tells
// apart. A func, channel or unsafe pointer is encoded only when nil, since
// only an address identifies one; float32 and complex values are not
// encoded at all; and a pointer, slice or map that reaches itself is a
// cycle. The encoder reports false for all three.
//
// A study row is the 8-byte fingerprint of its type's layout (kinds, array
// lengths and field names, not type names), then its encoding, so a reader
// compares 8 bytes and otherwise knows the layout from its own V. Row types
// are built from bools, integers, float64s, strings, slices, arrays,
// integer-keyed maps and structs of exported fields (describe). The row
// decoder is canonical: it accepts only minimal varints, 0/1 bools,
// strictly increasing map key bytes and no trailing bytes, so any input it
// accepts re-encodes to the same bytes, and two writers of one value publish
// one file. It checks every length against the bytes left before it
// allocates, so a corrupt length cannot make it allocate more than its input
// describes.
//
// Neither gob nor JSON for rows: every entry file would be its own gob
// stream, so each read would rebuild gob's type descriptors and decode
// engine, which cost more than the rest of the read; JSON cannot carry the
// ±Inf and NaN the rows contain.
package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
)

// float64s is the type most row bytes are: its slices skip per-element
// reflection, which saves about a quarter of a warm read
// (BenchmarkStudyCacheRead in internal/experiments).
var float64s = reflect.TypeOf([]float64(nil))

// visit is a reference value on the path from a part's root: the same
// address reached again with the same type is a cycle. (The type tells an
// interior pointer, such as one to a struct's first field, from the
// struct's own.)
type visit struct {
	t   reflect.Type
	ptr uintptr
}

// encoder appends the content encoding to buf; path is the stack of
// reference values being encoded (a slice, not a map: values nest a few
// levels deep).
type encoder struct {
	buf  []byte
	path []visit
}

// value appends v's encoding and reports whether v has one.
func (e *encoder) value(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		e.flag(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.buf = binary.AppendVarint(e.buf, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.buf = binary.AppendUvarint(e.buf, v.Uint())
	case reflect.Float64:
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v.Float()))
	case reflect.String:
		e.str(v.String())
	case reflect.Array:
		return e.elems(v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !e.value(v.Field(i)) {
				return false
			}
		}
	case reflect.Interface:
		return e.iface(v.Elem())
	case reflect.Pointer, reflect.Slice, reflect.Map:
		return e.ref(v)
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		e.flag(false)
		return v.IsNil()
	default: // float32, complex
		return false
	}
	return true
}

func (e *encoder) flag(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) str(s string) {
	e.buf = append(binary.AppendUvarint(e.buf, uint64(len(s))), s...)
}

// iface encodes an interface's dynamic value x with its type; an invalid x
// is a nil interface.
func (e *encoder) iface(x reflect.Value) bool {
	e.flag(x.IsValid())
	if !x.IsValid() {
		return true
	}
	e.str(x.Type().PkgPath())
	e.str(x.Type().String())
	return e.value(x)
}

// ref encodes a pointer, slice or map by what it refers to, a nil one as 0.
// A reference already on the path is a cycle, which has no encoding.
func (e *encoder) ref(v reflect.Value) bool {
	if v.IsNil() {
		e.flag(false)
		return true
	}
	at := visit{v.Type(), v.Pointer()}
	for _, p := range e.path {
		if p == at {
			return false
		}
	}
	e.path = append(e.path, at)
	var ok bool
	switch v.Kind() {
	case reflect.Pointer:
		e.flag(true)
		ok = e.value(v.Elem())
	case reflect.Slice:
		e.buf = binary.AppendUvarint(e.buf, uint64(v.Len())+1)
		ok = e.elems(v)
	case reflect.Map:
		e.buf = binary.AppendUvarint(e.buf, uint64(v.Len())+1)
		ok = e.mapEntries(v)
	}
	e.path = e.path[:len(e.path)-1]
	return ok
}

// elems encodes a slice's or array's elements in order.
func (e *encoder) elems(v reflect.Value) bool {
	if v.Type() == float64s && v.CanInterface() {
		for _, f := range v.Interface().([]float64) {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
		}
		return true
	}
	for i := 0; i < v.Len(); i++ {
		if !e.value(v.Index(i)) {
			return false
		}
	}
	return true
}

// mapEntries encodes a map's entries sorted by their bytes, so iteration
// order never reaches the encoding. No key's encoding is a prefix of
// another's, so that is the order of the key encodings; only keys with
// equal encodings (two NaNs, two pointers to equal values) are ordered by
// their values.
func (e *encoder) mapEntries(v reflect.Value) bool {
	entries := make([]string, 0, v.Len())
	for it := v.MapRange(); it.Next(); {
		sub := encoder{path: e.path}
		if !sub.value(it.Key()) || !sub.value(it.Value()) {
			return false
		}
		entries = append(entries, string(sub.buf))
	}
	sort.Strings(entries)
	for _, s := range entries {
		e.buf = append(e.buf, s...)
	}
	return true
}

// fingerprints caches each row type's layout fingerprint
// (reflect.Type -> [8]byte).
var fingerprints sync.Map

// fingerprint returns t's layout fingerprint: the first 8 bytes of the
// SHA-256 of describe(t). It panics on a type the row codec does not cover,
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
	e := encoder{buf: fp[:]}
	// A type that passed describe holds no func, channel, pointer or
	// interface, so its values always encode.
	e.value(rv)
	return e.buf
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
		var prev []byte
		for i := 0; i < n && !d.bad; i++ {
			k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			rest := d.b
			d.value(k)
			kb := rest[:len(rest)-len(d.b)]
			if i > 0 && bytes.Compare(prev, kb) >= 0 {
				d.fail()
				return
			}
			d.value(e)
			m.SetMapIndex(k, e)
			prev = kb
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField() && !d.bad; i++ {
			d.value(v.Field(i))
		}
	}
}
