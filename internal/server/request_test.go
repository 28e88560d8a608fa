package server

import (
	"bytes"
	"errors"
	"testing"

	"capsim/internal/experiments"
)

// FuzzRunRequest feeds arbitrary POST /v1/run bodies through the handler's
// decoder and resolve. Neither may panic, and resolve may reject a request
// only with an HTTP status. A request that resolves must yield a valid
// configuration and a cache key that decoding the same bytes again
// reproduces.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"experiment":"fig10"}`,
		`{"experiment":"fig10","no_such_field":1}`,
		`{"experiment":"fig10","parallel":-1}`,
		`{"experiment":"fig10","timeout_ms":-5}`,
		`{"experiment":"no-such-experiment"}`,
	} {
		f.Add([]byte(body))
	}
	base := experiments.DefaultConfig()
	resolveBody := func(t *testing.T, body []byte) (string, bool) {
		req, err := decodeRunRequest(bytes.NewReader(body))
		if err != nil {
			return "", false
		}
		cfg, err := req.resolve(base)
		if err != nil {
			var he *httpError
			if !errors.As(err, &he) {
				t.Fatalf("resolve rejected %q without an HTTP status: %v", body, err)
			}
			return "", false
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("resolved %q to an invalid configuration: %v", body, err)
		}
		return cacheKey(req.Experiment, cfg), true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		key, ok := resolveBody(t, body)
		if !ok {
			return
		}
		if again, _ := resolveBody(t, body); again != key {
			t.Fatalf("cache key of %q changed between decodes: %q then %q", body, key, again)
		}
	})
}
