package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capsim/internal/experiments"
)

// argSep separates arguments in FuzzParseArgs inputs, so one string encodes
// a whole command line, empty and space-bearing arguments included.
const argSep = "\x00"

// rejected are command lines parseArgs must refuse, each with a fragment of
// the expected error. They seed FuzzParseArgs too.
var rejected = []struct {
	args string
	want string
}{
	{"-experiment\x00fig7\x00-feature\x00NaN", "finite and positive"},
	{"-experiment\x00fig7\x00-feature\x00+Inf", "finite and positive"},
	{"-experiment\x00fig7\x00-feature\x00-Inf", "finite and positive"},
	{"-experiment\x00fig7\x00-feature\x000", "finite and positive"},
	{"-experiment\x00fig7,bogus", `unknown experiment "bogus"`},
	{"-experiment\x00fig7,", `unknown experiment ""`},
	{"-experiment\x00all,fig7", `unknown experiment "all"`},
	{"-experiment\x00fig7\x00-parallel\x00-1", "-parallel must be >= 0"},
	{"-experiment\x00fig7\x00-cache-refs\x005", "CacheRefs 5 too small"},
	{"-experiment\x00fig7\x00fig9", `unexpected argument "fig9"`},
	{"-serve\x00:0", "flag provided but not defined: -serve"},
	{"-study-cache-budget\x001", "flag provided but not defined: -study-cache-budget"},
	{"-trace-budget\x001", "flag provided but not defined: -trace-budget"},
	{"-parallel\x00two", "invalid value"},
	{"-report\x00,", "no input files"},
	{"-seed\x001", "-experiment required"},
	{"-shard\x000/2\x00-experiment\x00fig7", "flag provided but not defined: -shard"},
	{"-experiment\x00fig7\x00-obs", "flag provided but not defined: -obs"},
}

// accepted are command lines parseArgs must take.
var accepted = []string{
	"-list",
	"-experiment\x00fig7",
	"-experiment\x00all\x00-parallel\x002\x00-seed\x001",
	"-experiment\x00fig12,fig13\x00-parallel\x000",
	"-experiment\x00fig7\x00-feature\x000.12\x00-cache-refs\x002000",
	"-report\x00a.ledger,b.json",
	"-serve-api\x00127.0.0.1:0\x00-api-cache\x002\x00-api-timeout\x005s",
	"-experiment\x00fig7,fig8,fig9\x00-study-cache\x00d",
	"-experiment\x00all\x00-study-cache\x00d\x00-metrics-out\x00m.json",
}

func TestParseArgs(t *testing.T) {
	for _, tc := range rejected {
		_, err := parseArgs(strings.Split(tc.args, argSep))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	for _, args := range accepted {
		if _, err := parseArgs(strings.Split(args, argSep)); err != nil {
			t.Errorf("%q rejected: %v", args, err)
		}
	}
	rc, err := parseArgs([]string{"-experiment", "fig13,fig12"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rc.ids, ","); got != "fig13,fig12" {
		t.Errorf("ids %q, want the given order", got)
	}
	if got := len(flagMap(rc.fs)); got != 23 {
		t.Errorf("%d flags, want 23", got)
	}
}

// TestRunRejectsBeforeSimulating: a usage error exits 2 before any
// experiment runs and before the ledger or CPU profile file is created. An
// unknown id after a known one used to be found only once the known one had
// rendered.
func TestRunRejectsBeforeSimulating(t *testing.T) {
	dir := t.TempDir()
	ledger, prof := filepath.Join(dir, "run.ledger"), filepath.Join(dir, "cpu.pprof")
	for _, tc := range rejected {
		args := append(strings.Split(tc.args, argSep), "-ledger-out", ledger, "-cpuprofile", prof)
		err := run(args)
		ec, ok := err.(exitCoder)
		if !ok || ec.code != 2 {
			t.Errorf("%q: run = %v, want exit status 2", tc.args, err)
		}
		for _, p := range []string{ledger, prof} {
			if _, err := os.Stat(p); err == nil {
				t.Fatalf("%q: %s created before the usage error", tc.args, filepath.Base(p))
			}
		}
	}
	if err := run([]string{"-h"}); err != nil {
		t.Errorf("-h: %v, want exit status 0", err)
	}
}

// FuzzParseArgs: parseArgs never panics, and every command line it accepts
// yields a runnable configuration — the budgets validate, the worker count
// is not negative, and every experiment id is registered.
func FuzzParseArgs(f *testing.F) {
	for _, tc := range rejected {
		f.Add(tc.args)
	}
	for _, args := range accepted {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rc, err := parseArgs(strings.Split(s, argSep))
		if err != nil {
			return
		}
		if err := rc.cfg.Validate(); err != nil {
			t.Fatalf("%q accepted with invalid config: %v", s, err)
		}
		if rc.parallel < 0 {
			t.Fatalf("%q accepted with -parallel %d", s, rc.parallel)
		}
		for _, id := range rc.ids {
			if _, err := experiments.Title(id); err != nil {
				t.Fatalf("%q accepted unknown experiment %q", s, id)
			}
		}
	})
}
