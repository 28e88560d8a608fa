package memo

import (
	"encoding/binary"
	"math"
	"reflect"
	"sort"
)

// Key encodes parts into one content key: two calls return the same string
// exactly when their parts hold the same data. Every memo tier keys through
// it — study rows in process and on disk, the trace stores, the race
// families and the API server's responses — so which computation a cached
// value stands for is decided here, in one place.
//
// The encoding walks values with reflect and is binary and prefix-free:
// every value is written so that its type alone tells where it ends, so no
// two inputs share a key. It follows pointers (a pointer is encoded as what
// it points to, never as an address), sorts map entries by their encodings,
// writes floats as their exact IEEE 754 bits (so -0 and 0 differ and no
// digit is rounded away), and names the dynamic type of every interface
// value, so two policies with equal fields but different types differ. It
// never calls String or GoString: a method written for display, such as
// tech.FeatureSize's two-decimal form, would merge inputs the model tells
// apart.
//
// Key reports false when a part cannot be encoded by content: a non-nil
// func, channel or unsafe pointer (only an address identifies one), or a
// pointer, map or slice that reaches itself. A caller without a key must not
// share a memo entry.
func Key(parts ...any) (string, bool) {
	k := keyWriter{buf: make([]byte, 0, 1024)}
	for _, p := range parts {
		if !k.iface(reflect.ValueOf(p)) {
			return "", false
		}
	}
	return string(k.buf), true
}

// visit is a reference value on the path from a part's root: the same
// address reached again with the same type is a cycle. (The type tells an
// interior pointer, such as one to a struct's first field, from the
// struct's own.)
type visit struct {
	t   reflect.Type
	ptr uintptr
}

// keyWriter appends an encoding to buf; path is the stack of reference
// values being encoded (a slice, not a map: keys nest a few levels deep).
type keyWriter struct {
	buf  []byte
	path []visit
}

func (k *keyWriter) value(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		k.flag(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		k.buf = binary.AppendVarint(k.buf, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		k.buf = binary.AppendUvarint(k.buf, v.Uint())
	case reflect.Float32, reflect.Float64:
		k.float(v.Float(), v.Type().Bits())
	case reflect.Complex64, reflect.Complex128:
		k.float(real(v.Complex()), v.Type().Bits()/2)
		k.float(imag(v.Complex()), v.Type().Bits()/2)
	case reflect.String:
		k.str(v.String())
	case reflect.Array:
		return k.elems(v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !k.value(v.Field(i)) {
				return false
			}
		}
	case reflect.Interface:
		return k.iface(v.Elem())
	default:
		return k.ref(v)
	}
	return true
}

func (k *keyWriter) flag(b bool) {
	if b {
		k.buf = append(k.buf, 1)
	} else {
		k.buf = append(k.buf, 0)
	}
}

func (k *keyWriter) float(f float64, bits int) {
	if bits == 32 {
		k.buf = binary.LittleEndian.AppendUint32(k.buf, math.Float32bits(float32(f)))
		return
	}
	k.buf = binary.LittleEndian.AppendUint64(k.buf, math.Float64bits(f))
}

func (k *keyWriter) str(s string) {
	k.buf = append(binary.AppendUvarint(k.buf, uint64(len(s))), s...)
}

// iface encodes an interface's dynamic value x with its type; an invalid x
// is a nil interface.
func (k *keyWriter) iface(x reflect.Value) bool {
	k.flag(x.IsValid())
	if !x.IsValid() {
		return true
	}
	k.str(x.Type().PkgPath())
	k.str(x.Type().String())
	return k.value(x)
}

// ref encodes a value that refers to others: a pointer, slice or map by
// what it refers to, a nil one as nil. A func, channel or unsafe pointer
// has no content but its address, and a reference already on the path is a
// cycle: both have no key.
func (k *keyWriter) ref(v reflect.Value) bool {
	k.flag(!v.IsNil())
	if v.IsNil() {
		return true
	}
	at := visit{v.Type(), v.Pointer()}
	for _, p := range k.path {
		if p == at {
			return false
		}
	}
	k.path = append(k.path, at)
	ok := false
	switch v.Kind() {
	case reflect.Pointer:
		ok = k.value(v.Elem())
	case reflect.Slice:
		ok = k.elems(v)
	case reflect.Map:
		ok = k.mapEntries(v)
	}
	k.path = k.path[:len(k.path)-1]
	return ok
}

// elems encodes a slice's or array's length and elements in order.
func (k *keyWriter) elems(v reflect.Value) bool {
	k.buf = binary.AppendUvarint(k.buf, uint64(v.Len()))
	for i := 0; i < v.Len(); i++ {
		if !k.value(v.Index(i)) {
			return false
		}
	}
	return true
}

// mapEntries encodes a map's entries sorted by their encodings, so
// iteration order never reaches the key.
func (k *keyWriter) mapEntries(v reflect.Value) bool {
	entries := make([]string, 0, v.Len())
	for it := v.MapRange(); it.Next(); {
		sub := keyWriter{path: k.path}
		if !sub.value(it.Key()) || !sub.value(it.Value()) {
			return false
		}
		entries = append(entries, string(sub.buf))
	}
	sort.Strings(entries)
	k.buf = binary.AppendUvarint(k.buf, uint64(len(entries)))
	for _, e := range entries {
		k.buf = append(k.buf, e...)
	}
	return true
}
