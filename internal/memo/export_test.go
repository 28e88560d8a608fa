package memo

import "reflect"

// EncodeValue and DecodeValue expose the row codec, without the layout
// fingerprint, to the external tests: they fuzz it with the study-row types
// of packages that import this one.
func EncodeValue[V any](v V) []byte {
	rv := reflect.ValueOf(&v).Elem()
	fingerprint(rv.Type()) // panics on a type the codec does not cover
	return appendValue(nil, rv)
}

func DecodeValue[V any](b []byte) (v V, ok bool) {
	rv := reflect.ValueOf(&v).Elem()
	fingerprint(rv.Type())
	return v, decodeValue(b, rv)
}
