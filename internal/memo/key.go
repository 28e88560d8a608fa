package memo

import "reflect"

// Key encodes parts into one content key: two calls return the same string
// exactly when their parts hold the same data. Every memo tier keys through
// it — study rows in process and on disk, the trace stores, the race
// families and the API server's responses — so which computation a cached
// value stands for is decided here, in one place.
//
// Each part is written as an interface value of the content encoding
// (codec.go): a nil flag, the dynamic type's package path and name, then
// the encoder's bytes, which are the bytes a study row of that value would
// carry. The key is binary and prefix-free, so no two inputs share one. It
// follows pointers (never an address), orders map entries by their key
// encodings, writes floats as their exact IEEE 754 bits (so -0 and 0 differ)
// and never calls String or GoString.
//
// Key reports false when a part cannot be encoded by content: a non-nil
// func, channel or unsafe pointer (only an address identifies one), a
// float32 or complex value, or a pointer, map or slice that reaches itself.
// A caller without a key must not share a memo entry.
func Key(parts ...any) (string, bool) {
	e := encoder{buf: make([]byte, 0, 1024)}
	for _, p := range parts {
		if !e.iface(reflect.ValueOf(p)) {
			return "", false
		}
	}
	return string(e.buf), true
}
