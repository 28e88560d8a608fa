package flight

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"capsim/internal/obs"
)

// Ledger is one parsed ledger artifact.
type Ledger struct {
	Schema string
	Runs   []LedgerRun
	// Warnings records recoverable damage — a truncated stream, a partial
	// final line, runs cut before their end line — that reduced the run set
	// without failing the parse.
	Warnings []string
}

// LedgerRun is one reassembled run column.
type LedgerRun struct {
	Run    int64
	Meta   RunMeta
	Events []Event
	End    RunEnd
	ended  bool
}

// truncationErr reports whether a stream error is the signature of a ledger
// cut mid-write (killed writer, mid-stream disconnect): an unexpected EOF,
// or the corrupt-deflate errors a gzip member truncated at an arbitrary
// byte produces.
func truncationErr(err error) bool {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var cie flate.CorruptInputError
	return errors.As(err, &cie)
}

// ParseLedger reassembles run columns from a ledger line stream. Unknown
// line types are skipped (forward compatibility within the major schema).
// Damage with a truncation signature is tolerated: a partial FINAL line, a
// stream error mid-gzip-member, or runs whose "end" line never arrived are
// reported through Ledger.Warnings and the complete prefix is analyzed. A
// malformed line with intact lines after it is still a hard error — that is
// corruption, not truncation.
func ParseLedger(r io.Reader) (Ledger, error) {
	var out Ledger
	runs := map[int64]*LedgerRun{}
	order := []int64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	var pendingErr error
	pendingLine := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			// The bad line was NOT the final one: corrupt mid-file.
			return Ledger{}, fmt.Errorf("line %d: %w", pendingLine, pendingErr)
		}
		var disc struct {
			T   string `json:"t"`
			Run int64  `json:"run"`
		}
		if err := json.Unmarshal(line, &disc); err != nil {
			pendingErr, pendingLine = err, lineNo
			continue
		}
		switch disc.T {
		case LineHeader:
			var h headerLine
			if err := json.Unmarshal(line, &h); err != nil {
				pendingErr, pendingLine = err, lineNo
				continue
			}
			if !strings.HasPrefix(h.Schema, "capsim/ledger/") {
				return Ledger{}, fmt.Errorf("line %d: not a capsim ledger (schema %q)", lineNo, h.Schema)
			}
			out.Schema = h.Schema
		case LineRun:
			var rl runLine
			if err := json.Unmarshal(line, &rl); err != nil {
				pendingErr, pendingLine = err, lineNo
				continue
			}
			if runs[rl.Run] != nil {
				// Two ledgers concatenated into one file (cat, or gzip
				// members) restart the numbering; merging them would
				// silently drop the first run.
				return Ledger{}, fmt.Errorf("line %d: duplicate run %d", lineNo, rl.Run)
			}
			lr := &LedgerRun{Run: rl.Run, Meta: rl.RunMeta}
			runs[rl.Run] = lr
			order = append(order, rl.Run)
		case LineEvent:
			var el eventLine
			if err := json.Unmarshal(line, &el); err != nil {
				pendingErr, pendingLine = err, lineNo
				continue
			}
			lr := runs[el.Run]
			if lr == nil {
				return Ledger{}, fmt.Errorf("line %d: event for unknown run %d", lineNo, el.Run)
			}
			lr.Events = append(lr.Events, el.Event)
		case LineEnd:
			var el endLine
			if err := json.Unmarshal(line, &el); err != nil {
				pendingErr, pendingLine = err, lineNo
				continue
			}
			lr := runs[el.Run]
			if lr == nil {
				return Ledger{}, fmt.Errorf("line %d: end for unknown run %d", lineNo, el.Run)
			}
			lr.End = el.RunEnd
			lr.ended = true
		case LineProgress:
			// Transient; nothing to reassemble.
		default:
			// Forward compatibility: skip unknown line types.
		}
	}
	if err := sc.Err(); err != nil {
		if !truncationErr(err) {
			return Ledger{}, err
		}
		out.Warnings = append(out.Warnings,
			fmt.Sprintf("stream truncated after line %d (%v); analyzing the complete prefix", lineNo, err))
	}
	if pendingErr != nil {
		out.Warnings = append(out.Warnings,
			fmt.Sprintf("partial final line %d (%v); analyzing the complete prefix", pendingLine, pendingErr))
	}
	if out.Schema == "" {
		return Ledger{}, fmt.Errorf("no ledger header line")
	}
	for _, id := range order {
		lr := runs[id]
		if !lr.ended {
			out.Warnings = append(out.Warnings,
				fmt.Sprintf("run %d (%s/%s) has no end line: dropped (cut mid-run)", id, lr.Meta.Policy, lr.Meta.Kind))
			continue
		}
		out.Runs = append(out.Runs, *lr)
	}
	return out, nil
}

// ReportInput is one source document for BuildReport: a parsed ledger or a
// run manifest accepted for provenance.
type ReportInput struct {
	Path     string
	Ledger   *Ledger
	Manifest *obs.Manifest
}

// ReadReportInput loads path as either a ledger (NDJSON, optionally
// gzipped) or a run manifest (capsim/run-manifest JSON). Manifests ride
// along as provenance — the report's header names the commands that
// produced the runs it summarizes.
func ReadReportInput(path string) (ReportInput, error) {
	r, err := openLedgerReader(path)
	if err != nil {
		return ReportInput{}, err
	}
	defer r.Close()
	buf, err := io.ReadAll(r)
	if err != nil && !truncationErr(err) {
		return ReportInput{}, fmt.Errorf("%s: %w", path, err)
	}
	// A manifest is ONE JSON document; a ledger is many, one per line, so a
	// whole-buffer Unmarshal succeeds only for manifests. Try that first and
	// fall back to ledger parsing.
	var m obs.Manifest
	if jerr := json.Unmarshal(buf, &m); jerr == nil && strings.HasPrefix(m.Schema, "capsim/run-manifest/") {
		return ReportInput{Path: path, Manifest: &m}, nil
	}
	l, perr := ParseLedger(bytes.NewReader(buf))
	if perr != nil {
		return ReportInput{}, fmt.Errorf("%s: %w", path, perr)
	}
	if err != nil {
		// The gzip stream itself was cut; the line prefix parsed clean.
		l.Warnings = append(l.Warnings,
			fmt.Sprintf("compressed stream truncated (%v); analyzing the complete prefix", err))
	}
	return ReportInput{Path: path, Ledger: &l}, nil
}

// Report renders ledger analytics: the per-app policy league table (ranked
// by total regret), the switch-rate/dwell-time table, and a cross-app
// per-policy summary — through the same table builders the zoo experiment
// renders with, so a report over an experiment's ledger reproduces its
// tables byte-for-byte.
func Report(inputs []ReportInput) string {
	var b strings.Builder
	fmt.Fprintf(&b, "capsim flight report (%s)\n", Schema)

	seen := map[string]bool{}
	var runs []RunSummary
	for _, in := range inputs {
		switch {
		case in.Ledger != nil:
			kept := 0
			for _, r := range in.Ledger.Runs {
				s := Summarize(r.Meta, r.Events, r.End)
				k := SummaryKey(s)
				if seen[k] {
					continue
				}
				seen[k] = true
				runs = append(runs, s)
				kept++
			}
			fmt.Fprintf(&b, "  ledger   %s: %d runs (%d new)\n", in.Path, len(in.Ledger.Runs), kept)
			for _, w := range in.Ledger.Warnings {
				fmt.Fprintf(&b, "  warning  %s: %s\n", in.Path, w)
			}
		case in.Manifest != nil:
			fmt.Fprintf(&b, "  manifest %s: %s\n", in.Path, in.Manifest.Command)
		}
	}
	b.WriteByte('\n')
	if len(runs) == 0 {
		b.WriteString("no runs recorded\n")
		return b.String()
	}

	for i, t := range LeagueReport(runs) {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.Render())
	}
	return b.String()
}
