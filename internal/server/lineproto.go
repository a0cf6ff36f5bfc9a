// Package server is the network serving layer over the storage engine: an
// HTTP API (stdlib-only) with a batched line-protocol ingest path, each
// request committed on its own handler (the engine's WAL group commit
// batches concurrent requests), streaming range-scan / aggregate /
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
	// maxBatchPoints bounds one request's point count, and with it the
	// memory and commit time one request can take.
	maxBatchPoints = 1 << 20
)

// batch is one parsed ingest request, grouped by series.
type batch struct {
	ints   map[string][]tsfile.Point
	floats map[string][]tsfile.FloatPoint
	points int
}

// parseBatch parses a full line-protocol request body. Errors carry the
// 1-based line number. It never panics, whatever the input (fuzzed), and the
// batch keeps no reference into data.
//
// It makes one pass over the body with no per-line allocation or map
// operation: a line's series name is compared with the previous line's,
// names are interned once per series, and numbers are parsed from the bytes.
func parseBatch(data []byte) (*batch, error) {
	p := parser{room: lineRoom(data)}
	line := 0
	for len(data) > 0 {
		line++
		var row []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			row, data = data[:i], data[i+1:]
		} else {
			row, data = data, nil
		}
		row = bytes.TrimSpace(row) // '\r' included
		if len(row) == 0 || row[0] == '#' {
			continue
		}
		if err := p.addLine(row); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if p.points > maxBatchPoints {
			return nil, fmt.Errorf("line %d: batch exceeds %d points", line, maxBatchPoints)
		}
	}
	return p.batch(), nil
}

// lineRoom bounds the points a body can hold: one per line, and a point's
// line takes at least six bytes ("s,1,1" and its newline). The first
// series' slice is made this large, so a one-series request never regrows
// it; the byte bound keeps a body of blank lines from sizing it past about
// three times the body.
func lineRoom(data []byte) int {
	return min(bytes.Count(data, []byte{'\n'})+1, (len(data)+1)/6, maxBatchPoints)
}

// seriesPoints is one series' points while its request is parsed: ints
// until a float value joins the series, then floats.
type seriesPoints struct {
	name   string
	ints   []tsfile.Point
	floats []tsfile.FloatPoint
}

// parser builds one batch. Points go straight into the slice of the line's
// series; index is consulted only when the series differs from the
// previous line's.
type parser struct {
	list   []seriesPoints
	cur    int            // list index of the previous line's series
	index  map[string]int // list index by name, made at the second series
	room   int            // capacity of the first slice made, then 0: later ones grow
	points int
}

func (p *parser) addLine(row []byte) error {
	c1 := bytes.IndexByte(row, ',')
	if c1 < 0 {
		return fmt.Errorf("want series,timestamp,value")
	}
	rest := row[c1+1:]
	c2 := bytes.IndexByte(rest, ',')
	if c2 < 0 {
		return fmt.Errorf("want series,timestamp,value")
	}
	s, err := p.series(bytes.TrimSpace(row[:c1]))
	if err != nil {
		return err
	}
	tsText := bytes.TrimSpace(rest[:c2])
	t, err := parseInt(tsText)
	if err != nil {
		return fmt.Errorf("timestamp %q: %w", tsText, err)
	}
	valText := bytes.TrimSpace(rest[c2+1:])
	if len(valText) == 0 {
		return fmt.Errorf("empty value")
	}
	if isFloatSyntax(valText) {
		v, err := parseFloat(valText)
		if err != nil {
			return err
		}
		p.addFloat(s, tsfile.FloatPoint{T: t, V: v})
		return nil
	}
	v, err := parseInt(valText)
	if err != nil {
		return fmt.Errorf("value %q: %w", valText, err)
	}
	if len(s.floats) > 0 {
		// The series is float in this batch; promote, matching what the
		// client's float formatter may emit for whole numbers.
		p.addFloat(s, tsfile.FloatPoint{T: t, V: float64(v)})
		return nil
	}
	if s.ints == nil {
		s.ints = make([]tsfile.Point, 0, p.room)
		p.room = 0
	}
	s.ints = append(s.ints, tsfile.Point{T: t, V: v})
	p.points++
	return nil
}

func (p *parser) addFloat(s *seriesPoints, fp tsfile.FloatPoint) {
	if s.floats == nil {
		// Earlier integer-looking values of this batch join the float
		// series, in a slice as large as theirs.
		s.floats = make([]tsfile.FloatPoint, len(s.ints), cap(s.ints)+p.room)
		p.room = 0
		for i, ip := range s.ints {
			s.floats[i] = tsfile.FloatPoint{T: ip.T, V: float64(ip.V)}
		}
		s.ints = nil
	}
	s.floats = append(s.floats, fp)
	p.points++
}

// series returns the points of the series named name: the previous line's
// when the name repeats, else the one the index holds, else a new series
// whose name is checked and interned.
func (p *parser) series(name []byte) (*seriesPoints, error) {
	if len(p.list) > 0 && string(name) == p.list[p.cur].name {
		return &p.list[p.cur], nil
	}
	if i, ok := p.index[string(name)]; ok {
		p.cur = i
		return &p.list[i], nil
	}
	s := string(name)
	if err := checkSeriesName(s); err != nil {
		return nil, err
	}
	if len(p.list) == 1 {
		p.index = map[string]int{p.list[0].name: 0}
	}
	if p.index != nil {
		p.index[s] = len(p.list)
	}
	p.cur = len(p.list)
	p.list = append(p.list, seriesPoints{name: s})
	return &p.list[p.cur], nil
}

// batch hands the parsed series over, each in the map of its kind. Every
// series in the list holds points: a line that names a new series and then
// fails ends the parse.
func (p *parser) batch() *batch {
	b := &batch{ints: map[string][]tsfile.Point{}, floats: map[string][]tsfile.FloatPoint{}, points: p.points}
	for _, s := range p.list {
		if len(s.floats) > 0 {
			b.floats[s.name] = s.floats
		} else {
			b.ints[s.name] = s.ints
		}
	}
	return b
}

// parseInt parses a base-10 int64 exactly as strconv.ParseInt(string(s),
// 10, 64) does. Up to 18 digits cannot overflow, so they are read here; 19
// or more digits and bad syntax go to ParseInt, whose value or error stands.
func parseInt(s []byte) (int64, error) {
	d := s
	if len(d) > 0 && (d[0] == '+' || d[0] == '-') {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 18 {
		return strconv.ParseInt(string(s), 10, 64)
	}
	var n int64
	for _, c := range d {
		c -= '0'
		if c > 9 {
			return strconv.ParseInt(string(s), 10, 64)
		}
		n = n*10 + int64(c)
	}
	if s[0] == '-' {
		n = -n
	}
	return n, nil
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloat parses a value in the float syntax. A decimal without an
// exponent, with at most 15 significant digits and at most 22 after the
// dot, is m / 10^k with both m and 10^k exact in float64, so one correctly
// rounded division gives the value strconv.ParseFloat would (Clinger's fast
// path). Every other value goes through parseDecimalFloat.
func parseFloat(s []byte) (float64, error) {
	i := 0
	if s[0] == '+' || s[0] == '-' {
		i++
	}
	var m uint64
	digits, sig, frac, dot := 0, 0, 0, false
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			m = m*10 + uint64(c-'0')
			digits++
			if m != 0 {
				sig++
			}
			if dot {
				frac++
			}
			if sig > 15 || frac >= len(pow10) {
				return parseDecimalFloat(s)
			}
		case c == '.' && !dot:
			dot = true
		default:
			return parseDecimalFloat(s)
		}
	}
	if digits == 0 {
		return parseDecimalFloat(s)
	}
	v := float64(m) / pow10[frac]
	if s[0] == '-' {
		v = -v
	}
	return v, nil
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
func isFloatSyntax[T string | []byte](s T) bool {
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
func parseDecimalFloat[T string | []byte](s T) (float64, error) {
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
	v, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		return 0, fmt.Errorf("value %q: %v", s, err)
	}
	return v, nil
}
