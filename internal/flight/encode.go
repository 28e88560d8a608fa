package flight

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// The ledger's line encoder. Every ledger line is appended to a byte slice
// field by field in its struct-tag order with strconv, producing exactly
// the bytes json.Encoder writes for the line structs (encode_json_test.go
// keeps that encoder as the differential oracle): omitempty fields left out
// at their zero value, null for a nil slice, json's float and string rules.
// A run column becomes one buffer and one Write, so the file sink hands the
// gzip stream one large block per column instead of one per line.

// Names of the float fields each line checks before it is written: JSON
// has no token for NaN or ±Inf, so such a line is an error, never output.
var (
	eventFloatNames = [...]string{"period_ns", "drain_ns", "pen_ns", "adv_ns", "cum_time_ns", "tpi_ns",
		"oracle_ns", "regret_ns", "cum_regret_ns"}
	endFloatNames = [...]string{"time_ns", "tpi_ns", "cum_regret_ns"}
)

// checkFinite names the first NaN or ±Inf among fs.
func checkFinite(names []string, fs []float64) error {
	for i, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%s is %v, which JSON cannot encode", names[i], f)
		}
	}
	return nil
}

// appendFloat appends key, then f as json.Marshal writes a float64: the
// shortest decimal that round-trips, in 'f' form unless |f| < 1e-6 or
// |f| ≥ 1e21, where it switches to 'e' form with the exponent's leading
// zero dropped (e-09 → e-9). f must be finite.
func appendFloat(b []byte, key string, f float64) []byte {
	b = append(b, key...)
	if f == 0 {
		if math.Signbit(f) {
			return append(b, '-', '0')
		}
		return append(b, '0')
	}
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// appendString appends key, then s as a JSON string the way json.Encoder
// does by default: '"' and '\\' escaped, control characters as \b \f \n
// \r \t or \u00XX, the HTML characters <, > and & as \u003c, \u003e and
// \u0026, U+2028 and U+2029 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as \ufffd.
func appendString(b []byte, key, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, key...)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendLineStart opens a ledger line: `{"t":"<t>"`.
func appendLineStart(b []byte, t string) []byte {
	b = append(b, `{"t":"`...)
	b = append(b, t...)
	return append(b, '"')
}

// appendInt appends key, then v in decimal.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendRunLine appends the "run" metadata line.
func appendRunLine(b []byte, run int64, m *RunMeta) []byte {
	b = appendLineStart(b, LineRun)
	b = appendInt(b, `,"run":`, run)
	b = appendString(b, `,"app":`, m.App)
	b = strconv.AppendUint(append(b, `,"seed":`...), m.Seed, 10)
	b = append(b, `,"sizes":`...)
	if m.Sizes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, s := range m.Sizes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
		b = append(b, ']')
	}
	b = appendInt(b, `,"n":`, m.N)
	b = appendInt(b, `,"penalty_cycles":`, int64(m.Penalty))
	b = appendString(b, `,"policy":`, m.Policy)
	b = appendString(b, `,"kind":`, m.Kind)
	return append(b, '}', '\n')
}

// appendEventLine appends one "iv" line, or reports a non-finite float.
func appendEventLine(b []byte, run int64, ev *Event) ([]byte, error) {
	fs := [...]float64{ev.PeriodNS, ev.DrainNS, ev.PenaltyNS, ev.AdvNS, ev.CumTimeNS, ev.TPI,
		ev.OracleNS, ev.RegretNS, ev.CumRegretNS}
	if err := checkFinite(eventFloatNames[:], fs[:]); err != nil {
		return b, fmt.Errorf("flight: run %d interval %d: %w", run, ev.Interval, err)
	}
	b = appendLineStart(b, LineEvent)
	b = appendInt(b, `,"run":`, run)
	b = appendInt(b, `,"iv":`, ev.Interval)
	b = appendInt(b, `,"cfg":`, int64(ev.Config))
	b = appendInt(b, `,"size":`, int64(ev.Size))
	b = appendInt(b, `,"cycles":`, ev.Cycles)
	b = appendInt(b, `,"issued":`, ev.Issued)
	b = appendFloat(b, `,"period_ns":`, ev.PeriodNS)
	if ev.DrainCycles != 0 {
		b = appendInt(b, `,"drain_cycles":`, ev.DrainCycles)
	}
	b = appendFloat(b, `,"drain_ns":`, ev.DrainNS)
	b = appendFloat(b, `,"pen_ns":`, ev.PenaltyNS)
	b = appendFloat(b, `,"adv_ns":`, ev.AdvNS)
	b = appendFloat(b, `,"cum_time_ns":`, ev.CumTimeNS)
	b = appendFloat(b, `,"tpi_ns":`, ev.TPI)
	b = appendInt(b, `,"oracle_cfg":`, int64(ev.OracleCfg))
	b = appendFloat(b, `,"oracle_ns":`, ev.OracleNS)
	b = appendFloat(b, `,"regret_ns":`, ev.RegretNS)
	b = appendFloat(b, `,"cum_regret_ns":`, ev.CumRegretNS)
	if ev.Switched {
		b = append(b, `,"switched":true`...)
	}
	return append(b, '}', '\n'), nil
}

// appendEndLine appends the "end" summary line, or reports a non-finite
// float.
func appendEndLine(b []byte, run int64, e *RunEnd) ([]byte, error) {
	fs := [...]float64{e.TimeNS, e.TPI, e.CumRegretNS}
	if err := checkFinite(endFloatNames[:], fs[:]); err != nil {
		return b, fmt.Errorf("flight: run %d end line: %w", run, err)
	}
	b = appendLineStart(b, LineEnd)
	b = appendInt(b, `,"run":`, run)
	b = appendInt(b, `,"intervals":`, e.Intervals)
	b = appendInt(b, `,"instrs":`, e.Instrs)
	b = appendFloat(b, `,"time_ns":`, e.TimeNS)
	b = appendFloat(b, `,"tpi_ns":`, e.TPI)
	b = appendInt(b, `,"switches":`, e.Switches)
	b = appendFloat(b, `,"cum_regret_ns":`, e.CumRegretNS)
	return append(b, '}', '\n'), nil
}

// appendRun appends one run column — the "run" line, one "iv" line per
// event and the "end" line — to b. On a non-finite float it returns b
// unextended with the error, so a failed column leaves no partial lines.
func appendRun(b []byte, run int64, meta *RunMeta, events []Event, end *RunEnd) ([]byte, error) {
	n := len(b)
	b = appendRunLine(b, run, meta)
	var err error
	for i := range events {
		if b, err = appendEventLine(b, run, &events[i]); err != nil {
			return b[:n], err
		}
	}
	if b, err = appendEndLine(b, run, end); err != nil {
		return b[:n], err
	}
	return b, nil
}

// appendProgress appends one "progress" line.
func appendProgress(b []byte, p *Progress) []byte {
	b = appendLineStart(b, LineProgress)
	b = appendInt(b, `,"done":`, int64(p.Done))
	b = appendInt(b, `,"total":`, int64(p.Total))
	if p.Label != "" {
		b = appendString(b, `,"label":`, p.Label)
	}
	return append(b, '}', '\n')
}

// appendHeader appends the versioned header line.
func appendHeader(b []byte, generated string) []byte {
	b = appendLineStart(b, LineHeader)
	b = appendString(b, `,"schema":`, Schema)
	if generated != "" {
		b = appendString(b, `,"generated":`, generated)
	}
	return append(b, '}', '\n')
}

// EncodeRun writes one run column in ledger line format to w in one Write:
// the "run" metadata line, one "iv" line per event, and the "end" summary.
// Shared by the file sink and the server's streaming sink so both emit
// identical bytes. A NaN or ±Inf in any float is an error and writes
// nothing.
func EncodeRun(w io.Writer, run int64, meta RunMeta, events []Event, end RunEnd) error {
	b, err := appendRun(make([]byte, 0, 512+384*len(events)), run, &meta, events, &end)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// EncodeProgress writes one progress pulse in ledger line format.
func EncodeProgress(w io.Writer, p Progress) error {
	_, err := w.Write(appendProgress(make([]byte, 0, 96), &p))
	return err
}

// EncodeHeader writes the versioned header line.
func EncodeHeader(w io.Writer, generated string) error {
	_, err := w.Write(appendHeader(make([]byte, 0, 96), generated))
	return err
}
