package flight

import (
	"encoding/json"
	"io"
)

// The encoding/json ledger writer the hand encoder (encode.go) replaced,
// kept as its differential oracle: json.Encoder over the line structs, one
// Encode per line.

type progressLine struct {
	T string `json:"t"`
	Progress
}

func jsonEncodeRun(w io.Writer, run int64, meta RunMeta, events []Event, end RunEnd) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(runLine{T: LineRun, Run: run, RunMeta: meta}); err != nil {
		return err
	}
	for _, ev := range events {
		if err := enc.Encode(eventLine{T: LineEvent, Run: run, Event: ev}); err != nil {
			return err
		}
	}
	return enc.Encode(endLine{T: LineEnd, Run: run, RunEnd: end})
}

func jsonEncodeProgress(w io.Writer, p Progress) error {
	return json.NewEncoder(w).Encode(progressLine{T: LineProgress, Progress: p})
}

func jsonEncodeHeader(w io.Writer, generated string) error {
	return json.NewEncoder(w).Encode(headerLine{T: LineHeader, Schema: Schema, Generated: generated})
}
