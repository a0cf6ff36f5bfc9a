// Package server is the network serving layer over the storage engine: an
// HTTP API (stdlib-only) with a batched line-protocol ingest path that
// group-commits concurrent client batches, streaming range-scan / aggregate /
// downsample query endpoints, stats and health reporting, and a typed Go
// client. A range scan streams CSV, or a delta-varint point stream
// (pointstream.go) to a client that asks for it, as the typed client does.
// cmd/bosserver wires the API to a listener; cmd/bosperf benchmarks it.
package server

import (
	"bytes"
	"fmt"
	"strconv"

	"bos/internal/tsfile"
)

// The ingest line protocol: one point per line,
//
//	series,timestamp,value
//
// Timestamps are base-10 int64. A value containing '.', 'e' or 'E' is a
// float64 (decimal notation only — NaN, Inf and hex floats are rejected);
// anything else must be a base-10 int64. Blank lines and lines starting with
// '#' are skipped. A series holds one value kind: within a batch an
// integer-looking value joining a float series is promoted to float, and the
// engine rejects cross-batch kind changes.

const (
	// maxSeriesName bounds series name length; longer names are a client bug
	// (or an attack), not data.
	maxSeriesName = 512
	// maxBatchPoints bounds one request's point count, keeping a single
	// client from monopolizing the group committer.
	maxBatchPoints = 1 << 20
)

// batch is one parsed ingest request, grouped by series.
type batch struct {
	ints   map[string][]tsfile.Point
	floats map[string][]tsfile.FloatPoint
	points int
}

func newBatch() *batch {
	return &batch{ints: map[string][]tsfile.Point{}, floats: map[string][]tsfile.FloatPoint{}}
}

// parseBatch parses a full line-protocol request body. Errors carry the
// 1-based line number. It never panics, whatever the input (fuzzed).
func parseBatch(data []byte) (*batch, error) {
	b := newBatch()
	line := 0
	for len(data) > 0 {
		line++
		var row []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			row, data = data[:i], data[i+1:]
		} else {
			row, data = data, nil
		}
		row = bytes.TrimRight(row, "\r")
		row = bytes.TrimSpace(row)
		if len(row) == 0 || row[0] == '#' {
			continue
		}
		if err := b.addLine(row); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if b.points > maxBatchPoints {
			return nil, fmt.Errorf("line %d: batch exceeds %d points", line, maxBatchPoints)
		}
	}
	return b, nil
}

func (b *batch) addLine(row []byte) error {
	c1 := bytes.IndexByte(row, ',')
	if c1 < 0 {
		return fmt.Errorf("want series,timestamp,value")
	}
	rest := row[c1+1:]
	c2 := bytes.IndexByte(rest, ',')
	if c2 < 0 {
		return fmt.Errorf("want series,timestamp,value")
	}
	series := string(bytes.TrimSpace(row[:c1]))
	if err := checkSeriesName(series); err != nil {
		return err
	}
	tsText := string(bytes.TrimSpace(rest[:c2]))
	t, err := strconv.ParseInt(tsText, 10, 64)
	if err != nil {
		return fmt.Errorf("timestamp %q: %w", tsText, err)
	}
	valText := string(bytes.TrimSpace(rest[c2+1:]))
	if len(valText) == 0 {
		return fmt.Errorf("empty value")
	}
	if isFloatSyntax(valText) {
		v, err := parseDecimalFloat(valText)
		if err != nil {
			return err
		}
		b.addFloat(series, tsfile.FloatPoint{T: t, V: v})
		return nil
	}
	v, err := strconv.ParseInt(valText, 10, 64)
	if err != nil {
		return fmt.Errorf("value %q: %w", valText, err)
	}
	if len(b.floats[series]) > 0 {
		// The series is float in this batch; promote, matching what the
		// client's float formatter may emit for whole numbers.
		b.addFloat(series, tsfile.FloatPoint{T: t, V: float64(v)})
		return nil
	}
	b.ints[series] = append(b.ints[series], tsfile.Point{T: t, V: v})
	b.points++
	return nil
}

func (b *batch) addFloat(series string, p tsfile.FloatPoint) {
	if pts := b.ints[series]; len(pts) > 0 {
		// Earlier integer-looking values of this batch join the float series.
		for _, ip := range pts {
			b.floats[series] = append(b.floats[series], tsfile.FloatPoint{T: ip.T, V: float64(ip.V)})
		}
		delete(b.ints, series)
	}
	b.floats[series] = append(b.floats[series], p)
	b.points++
}

// checkSeriesName rejects names that would corrupt the CSV wire format or
// smuggle control bytes into file-backed structures.
func checkSeriesName(s string) error {
	if len(s) == 0 {
		return fmt.Errorf("empty series name")
	}
	if len(s) > maxSeriesName {
		return fmt.Errorf("series name longer than %d bytes", maxSeriesName)
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == 0x7f {
			return fmt.Errorf("series name contains control byte 0x%02x", s[i])
		}
	}
	return nil
}

// isFloatSyntax reports whether the value text selects the float path.
func isFloatSyntax(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '.', 'e', 'E':
			return true
		}
	}
	return false
}

// parseDecimalFloat parses a strictly decimal float: optional sign, digits
// with at most one dot, optional e/E exponent. NaN, Inf, hex floats and
// underscores — all accepted by strconv.ParseFloat — are rejected here, and
// out-of-range magnitudes error instead of rounding to ±Inf.
func parseDecimalFloat(s string) (float64, error) {
	i, n := 0, len(s)
	if i < n && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits, dot := 0, false
	for i < n {
		switch {
		case s[i] >= '0' && s[i] <= '9':
			digits++
		case s[i] == '.' && !dot:
			dot = true
		default:
			goto exponent
		}
		i++
	}
exponent:
	if digits == 0 {
		return 0, fmt.Errorf("value %q: not a decimal number", s)
	}
	if i < n {
		if s[i] != 'e' && s[i] != 'E' {
			return 0, fmt.Errorf("value %q: not a decimal number", s)
		}
		i++
		if i < n && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i == n {
			return 0, fmt.Errorf("value %q: missing exponent digits", s)
		}
		for ; i < n; i++ {
			if s[i] < '0' || s[i] > '9' {
				return 0, fmt.Errorf("value %q: not a decimal number", s)
			}
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("value %q: %v", s, err)
	}
	return v, nil
}
