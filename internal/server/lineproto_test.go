package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"bos/internal/tsfile"
)

func TestParseBatchBasic(t *testing.T) {
	b, err := parseBatch([]byte(
		"root.d1.temp,100,42\n" +
			"root.d1.temp,200,-7\n" +
			"# comment\n" +
			"\n" +
			"root.d1.hum,100,55.5\r\n" +
			"root.d1.hum,200,1e3\n" +
			"other,5,9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if b.points != 5 {
		t.Fatalf("points = %d, want 5", b.points)
	}
	if got := b.ints["root.d1.temp"]; len(got) != 2 || got[0].T != 100 || got[0].V != 42 || got[1].V != -7 {
		t.Fatalf("temp points: %+v", got)
	}
	if got := b.floats["root.d1.hum"]; len(got) != 2 || got[0].V != 55.5 || got[1].V != 1000 {
		t.Fatalf("hum points: %+v", got)
	}
	if got := b.ints["other"]; len(got) != 1 {
		t.Fatalf("other points: %+v", got)
	}
}

func TestParseBatchIntPromotedToFloat(t *testing.T) {
	// An integer-looking value mixed into a float series within one batch is
	// promoted, in both orders.
	b, err := parseBatch([]byte("s,1,2.5\ns,2,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.floats["s"]; len(got) != 2 || got[1].V != 3 {
		t.Fatalf("float-first: %+v", got)
	}
	if len(b.ints["s"]) != 0 {
		t.Fatalf("int leftovers: %+v", b.ints["s"])
	}
	b, err = parseBatch([]byte("s,1,3\ns,2,2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.floats["s"]; len(got) != 2 || got[0].V != 3 || got[1].V != 2.5 {
		t.Fatalf("int-first: %+v", got)
	}
	if b.points != 2 {
		t.Fatalf("points = %d, want 2", b.points)
	}
}

func TestParseBatchErrors(t *testing.T) {
	cases := []struct {
		name, input, wantSub string
	}{
		{"missing fields", "a,1\n", "series,timestamp,value"},
		{"no commas", "abc\n", "series,timestamp,value"},
		{"empty series", ",1,2\n", "empty series"},
		{"control char series", "a\x01b,1,2\n", "control byte"},
		{"long series", strings.Repeat("x", maxSeriesName+1) + ",1,2\n", "longer than"},
		{"bad timestamp", "a,xyz,2\n", "timestamp"},
		{"overflow timestamp", "a,9223372036854775808,2\n", "timestamp"},
		{"empty value", "a,1,\n", "empty value"},
		{"bad value", "a,1,zzz\n", "value"},
		{"overflow int value", "a,1,99999999999999999999\n", "value"},
		{"nan", "a,1,NaN\n", "value"},
		{"inf", "a,1,Inf\n", "value"},
		{"neg inf", "a,1,-Infinity\n", "value"},
		{"hex float", "a,1,0x1p3\n", "value"},
		{"underscore int", "a,1,1_000\n", "value"},
		{"underscore float", "a,1,1_0.5\n", "value"},
		{"float overflow", "a,1,1e999\n", "value"},
		{"dangling exponent", "a,1,1e\n", "value"},
		{"double dot", "a,1,1.2.3\n", "value"},
		{"dot only", "a,1,.\n", "value"},
		{"line number", "ok,1,2\nbad\n", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseBatch([]byte(tc.input))
			if err == nil {
				t.Fatalf("parseBatch(%q): want error", tc.input)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("parseBatch(%q) error %q, want substring %q", tc.input, err, tc.wantSub)
			}
		})
	}
}

func TestParseDecimalFloatAccepts(t *testing.T) {
	for _, s := range []string{"1.5", "-0.25", "+3.", ".5", "1e3", "1E-3", "2.5e+10", "0.0"} {
		if _, err := parseDecimalFloat(s); err != nil {
			t.Errorf("parseDecimalFloat(%q): %v", s, err)
		}
	}
}

func TestAppendFloatValueRoundTrips(t *testing.T) {
	for _, v := range []float64{0, 3, -3, 2.5, 1e30, -1.25e-7} {
		text := string(appendFloatValue(nil, v))
		if !isFloatSyntax(text) {
			t.Errorf("appendFloatValue(%v) = %q: not float syntax", v, text)
		}
		got, err := parseDecimalFloat(text)
		if err != nil {
			t.Errorf("appendFloatValue(%v) = %q: %v", v, text, err)
			continue
		}
		if got != v {
			t.Errorf("round trip %v -> %q -> %v", v, text, got)
		}
	}
}

// The reference parser: parseBatch, addLine and addFloat as they were
// before parseBatch read the body in one pass, kept verbatim but for the
// entry point's name. FuzzParseBatch holds parseBatch to it.

func newBatch() *batch {
	return &batch{ints: map[string][]tsfile.Point{}, floats: map[string][]tsfile.FloatPoint{}}
}

// refParseBatch parses a full line-protocol request body. Errors carry the
// 1-based line number. It never panics, whatever the input (fuzzed).
func refParseBatch(data []byte) (*batch, error) {
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

// FuzzParseBatch holds parseBatch to the reference parser above: on any
// bytes, either both fail with the same error text, or both return the same
// point count and the same series with the same points, float values
// compared bit for bit.
func FuzzParseBatch(f *testing.F) {
	for _, seed := range []string{
		// FuzzLineProtocol's seeds.
		"root.d1.temp,100,42\n",
		"s,1,2.5\ns,2,3\n",
		"# comment\n\ns,-5,-9\n",
		"a,9223372036854775807,-9223372036854775808\n",
		"a,1,1e309\n",
		"a,1,NaN\nb,2,0x1p3\n",
		",,\n",
		"s,1,.\n",
		strings.Repeat("s,1,1\n", 100),
		// Interleaved series, a series coming back after others, and
		// promotion in both orders and across series.
		"a,1,1\nb,1,2\na,2,3\nc,1,4\nb,2,5\na,3,6\n",
		"a,1,1\nb,1,2.5\na,2,3.5\nb,2,4\nc,1,5\nc,2,6.25\n",
		"s,1,3\ns,2,2.5\ns,3,4\n",
		"s,1,2.5\ns,2,3\ns,3,-4\n",
		// Floats: signed zeros, 15, 16 and 17 significant digits, leading
		// and trailing zeros, 22 and 23 digits after the dot, the edge of
		// the exact powers of ten.
		"s,1,-0.0\ns,2,+0.0\ns,3,0.\ns,4,-.5\n",
		"s,1,123456789012.345\ns,2,0.000123456789012345\n",
		"s,1,123456789012.3456\ns,2,1234567890123.4567\ns,3,9007199254740993.0\n",
		"s,1,0.30000000000000004\ns,2,1.7976931348623157\n",
		"s,1,00000000000000000012.5000\ns,2,1.50000000000000000000\n",
		"s,1,0.0000000000000000000001\ns,2,0.00000000000000000000001\n",
		"s,1,1e22\ns,2,1e23\ns,3,1E-5\ns,4,2.5e+10\n",
		"s,1,1.2.3\n", "s,1,+.\n", "s,1,-\n", "s,1,1e\n",
		// Integers: 18, 19 and 20 digits, overflow, signs, leading zeros.
		"s,999999999999999999,-999999999999999999\n",
		"s,1000000000000000000,-1000000000000000000\n",
		"s,9223372036854775808,1\n",
		"s,1,-9223372036854775809\n",
		"s,1,99999999999999999999\n",
		"s,+5,+5\ns,007,007\ns,-0,-0\n",
		"s,1_000,1\n", "s,1,1_000\n", "s,0x10,1\n",
		// CRLF, spaces and tabs around fields, Unicode spaces, stray commas.
		"s,1,1\r\ns,2,2.5\r\r\n",
		"  s , 1 , 2 \n\ts\t,\t2\t,\t3.5\t\n",
		"\u00a0s\u00a0,\u20001,2\u0085\n",
		"s,1,2,3\n", "s,,1\n", "s,1\n", "#s,1,1\n  # x\n",
		"a\x01b,1,2\n", "s,1,\xff\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := parseBatch(data)
		want, wantErr := refParseBatch(data)
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%q: error %v, reference %v", data, err, wantErr)
			}
			return
		}
		if got.points != want.points {
			t.Fatalf("%q: %d points, reference %d", data, got.points, want.points)
		}
		sameSeries(t, data, got.ints, want.ints, func(a, b int64) bool { return a == b })
		sameSeries(t, data, got.floats, want.floats, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		})
	})
}

// sameSeries fails t unless got and want hold the same series with the same
// points, values compared by eq.
func sameSeries[V int64 | float64](t *testing.T, data []byte, got, want map[string][]tsfile.Sample[V], eq func(a, b V) bool) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%q: %d series %v, reference %d %v", data, len(got), got, len(want), want)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			t.Fatalf("%q: series %q holds %v, reference %v", data, name, g, w)
		}
		for i := range w {
			if g[i].T != w[i].T || !eq(g[i].V, w[i].V) {
				t.Fatalf("%q: series %q point %d is %+v, reference %+v", data, name, i, g[i], w[i])
			}
		}
	}
}

// lineBody renders n lines in the form cmd/bosperf posts, millisecond
// timestamps on a one-second grid, cycling through the series names; value
// renders point i's value.
func lineBody(series []string, n int, value func(i int) string) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, series[i%len(series)]...)
		b = append(b, ',')
		b = strconv.AppendInt(b, 1_700_000_000_000+int64(i)*1000, 10)
		b = append(b, ',')
		b = append(b, value(i)...)
		b = append(b, '\n')
	}
	return b
}

func intValue(i int) string { return strconv.Itoa((i*7919)%100000 - 50000) }

func floatValue(i int) string { return strconv.FormatFloat(float64((i*7919)%100000)/100, 'f', 2, 64) }

// TestParseBatchAllocs pins parseBatch's allocations to a count per request
// and per series, not per line: a one-series body allocates as much at
// 5,000 lines as at 500, for either value kind.
func TestParseBatchAllocs(t *testing.T) {
	allocs := func(body []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := parseBatch(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := []string{"root.perf.s01"}
	for _, kind := range []struct {
		name  string
		value func(int) string
	}{{"int", intValue}, {"float", floatValue}} {
		small, large := allocs(lineBody(one, 500, kind.value)), allocs(lineBody(one, 5000, kind.value))
		if small != large {
			t.Errorf("%s series: %v allocations at 500 lines, %v at 5000", kind.name, small, large)
		}
	}
	// Interleaved, every line changes series. Each series after the first
	// grows its slice as its points arrive, about log2(500) allocations,
	// plus its name and index entry.
	four := []string{"root.perf.s01", "root.perf.s02", "root.perf.s03", "root.perf.s04"}
	const perSeries = 16
	if got := allocs(lineBody(four, 4*500, intValue)); got > perSeries*float64(len(four)) {
		t.Errorf("4 interleaved series of 500 points: %v allocations, want at most %d", got, perSeries*len(four))
	}
}

// BenchmarkParseBatch parses request bodies in the form cmd/bosperf posts.
func BenchmarkParseBatch(b *testing.B) {
	one := []string{"root.perf.s01"}
	for _, bc := range []struct {
		name string
		body []byte
		n    int
	}{
		{"int500", lineBody(one, 500, intValue), 500},
		{"int5000", lineBody(one, 5000, intValue), 5000},
		{"float500", lineBody(one, 500, floatValue), 500},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				if _, err := parseBatch(bc.body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.n), "ns/point")
		})
	}
}

// TestReadBatchReusesBody checks that steady ingest reads its bodies into
// pooled buffers: reading and parsing a request allocates no more for a
// 5,000-line body than for a 500-line one, once a buffer has grown.
func TestReadBatchReusesBody(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	allocs := func(body []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
			if _, status, err := readBatch(httptest.NewRecorder(), req); err != nil {
				t.Fatalf("status %d: %v", status, err)
			}
		})
	}
	one := []string{"root.perf.s01"}
	// A collection may empty the pool mid-run and cost one more buffer.
	small, large := allocs(lineBody(one, 500, intValue)), allocs(lineBody(one, 5000, intValue))
	if large > small+1 {
		t.Errorf("%v allocations for a 500-line request, %v for 5000 lines", small, large)
	}
}
