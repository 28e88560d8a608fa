package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/streams.golden from the current generators")

// streamDigestLen is the number of instructions and references each digest
// covers.
const streamDigestLen = 1 << 20

// streamDigestSeeds are the seeds each application's streams are pinned at:
// the experiments' default seed and the one the -seed checks use.
var streamDigestSeeds = []uint64{1998, 1}

// instrDigest hashes the first n instructions of b's stream at seed: each
// instruction is its two source distances (little-endian int32) and its
// latency byte.
func instrDigest(b Benchmark, seed uint64, n int) string {
	s := NewInstrStream(b, seed)
	h := sha256.New()
	var buf []Instr
	rec := make([]byte, 0, 9<<12)
	for left := n; left > 0; {
		batch := min(left, 1<<12)
		buf = s.Fill(buf, batch)
		rec = rec[:0]
		for _, in := range buf {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(in.Src[0]))
			rec = binary.LittleEndian.AppendUint32(rec, uint32(in.Src[1]))
			rec = append(rec, byte(in.Latency))
		}
		h.Write(rec)
		left -= batch
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// refDigest hashes the first n references of b's address trace at seed:
// each reference is its address (little-endian uint64) and a write byte.
func refDigest(b Benchmark, seed uint64, n int) string {
	t := NewAddressTrace(b, seed)
	h := sha256.New()
	var buf []Ref
	rec := make([]byte, 0, 9<<12)
	for left := n; left > 0; {
		batch := min(left, 1<<12)
		buf = t.Fill(buf, batch)
		rec = rec[:0]
		for _, r := range buf {
			rec = binary.LittleEndian.AppendUint64(rec, r.Addr)
			w := byte(0)
			if r.Write {
				w = 1
			}
			rec = append(rec, w)
		}
		h.Write(rec)
		left -= batch
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// streamDigestLines renders one line per (application, seed, stream):
// "<app> <seed> instr|ref <sha256>", over All() then ZooApps().
func streamDigestLines() []string {
	var lines []string
	for _, b := range append(All(), ZooApps()...) {
		for _, seed := range streamDigestSeeds {
			lines = append(lines, fmt.Sprintf("%s %d instr %s", b.Name, seed, instrDigest(b, seed, streamDigestLen)))
			if b.Mem != nil {
				lines = append(lines, fmt.Sprintf("%s %d ref %s", b.Name, seed, refDigest(b, seed, streamDigestLen)))
			}
		}
	}
	return lines
}

// TestStreamDigests pins the generated streams themselves: every
// application's first 2^20 instructions and references at each pinned seed
// must hash to testdata/streams.golden. A change to a generator or to the
// sampling primitives under it fails here, at its source, rather than only
// through the rendered figures. Run with -update to rewrite the file after a
// deliberate stream change (and review which lines moved).
func TestStreamDigests(t *testing.T) {
	got := streamDigestLines()
	path := filepath.Join("testdata", "streams.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, %s has %d", len(got), path, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("stream digest changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
