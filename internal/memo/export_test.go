package memo

import "reflect"

// EncodeValue and DecodeValue expose the content encoding of a row type,
// without the layout fingerprint, to the external tests: they fuzz it with
// the study-row types of packages that import this one, and check that Key
// writes the same bytes.
func EncodeValue[V any](v V) []byte {
	rv := reflect.ValueOf(&v).Elem()
	fingerprint(rv.Type()) // panics on a type the row codec does not cover
	e := encoder{}
	e.value(rv)
	return e.buf
}

func DecodeValue[V any](b []byte) (v V, ok bool) {
	rv := reflect.ValueOf(&v).Elem()
	fingerprint(rv.Type())
	return v, decodeValue(b, rv)
}
