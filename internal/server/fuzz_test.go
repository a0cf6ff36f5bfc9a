package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"testing"

	"bos/internal/tsfile"
)

// FuzzLineProtocol asserts the ingest parser never panics and that every
// batch it accepts is internally consistent: counts add up, every series name
// passes validation, and no series appears with both value kinds.
func FuzzLineProtocol(f *testing.F) {
	f.Add([]byte("root.d1.temp,100,42\n"))
	f.Add([]byte("s,1,2.5\ns,2,3\n"))
	f.Add([]byte("# comment\n\ns,-5,-9\n"))
	f.Add([]byte("a,9223372036854775807,-9223372036854775808\n"))
	f.Add([]byte("a,1,1e309\n"))
	f.Add([]byte("a,1,NaN\nb,2,0x1p3\n"))
	f.Add([]byte(",,\n"))
	f.Add([]byte("s,1,.\n"))
	f.Add(bytes.Repeat([]byte("s,1,1\n"), 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := parseBatch(data)
		if err != nil {
			return
		}
		n := 0
		for name, pts := range b.ints {
			if err := checkSeriesName(name); err != nil {
				t.Fatalf("accepted bad series name %q: %v", name, err)
			}
			if len(b.floats[name]) > 0 {
				t.Fatalf("series %q has both int and float points", name)
			}
			n += len(pts)
		}
		for name, pts := range b.floats {
			if err := checkSeriesName(name); err != nil {
				t.Fatalf("accepted bad series name %q: %v", name, err)
			}
			for _, p := range pts {
				if p.V != p.V {
					t.Fatalf("series %q: accepted NaN", name)
				}
			}
			n += len(pts)
		}
		if n != b.points {
			t.Fatalf("points = %d but maps hold %d", b.points, n)
		}
		if b.points > maxBatchPoints {
			t.Fatalf("accepted %d points over the %d cap", b.points, maxBatchPoints)
		}
	})
}

// FuzzParseInt checks the ingest parser's integer fields against
// strconv.ParseInt(s, 10, 64) on arbitrary input. As a timestamp, and as a
// value outside the float syntax, a field is accepted exactly when ParseInt
// accepts it, with the same value, and a rejected field fails with
// ParseInt's own error.
func FuzzParseInt(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "+5", "007", "-", "+", "", "1_000", " 1", "1 ", "0x10",
		"999999999999999999", "-999999999999999999", "1000000000000000000",
		"9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", "99999999999999999999",
		"0.5", "1e3", "\xff",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if bytes.IndexByte(b, ',') >= 0 || bytes.IndexByte(b, '\n') >= 0 || !bytes.Equal(bytes.TrimSpace(b), b) {
			return // not one field as written: the line splits or trims it
		}
		want, wantErr := strconv.ParseInt(string(b), 10, 64)
		check := func(line string, slot func([]tsfile.Point) int64) {
			got, err := parseBatch([]byte(line))
			var numErr *strconv.NumError
			switch {
			case wantErr == nil && err != nil:
				t.Fatalf("%q: %v; strconv.ParseInt(%q) = %d", line, err, b, want)
			case wantErr == nil && (len(got.ints["s"]) != 1 || slot(got.ints["s"]) != want):
				t.Fatalf("%q: read %+v; strconv.ParseInt(%q) = %d", line, got.ints, b, want)
			case wantErr != nil && err == nil:
				t.Fatalf("%q: accepted %+v; strconv.ParseInt(%q): %v", line, got, b, wantErr)
			case wantErr != nil && len(b) > 0 && (!errors.As(err, &numErr) || numErr.Error() != wantErr.Error()):
				t.Fatalf("%q: %v; strconv.ParseInt(%q): %v", line, err, b, wantErr)
			}
		}
		check("s,"+string(b)+",1\n", func(p []tsfile.Point) int64 { return p[0].T })
		if !isFloatSyntax(string(b)) {
			check("s,1,"+string(b)+"\n", func(p []tsfile.Point) int64 { return p[0].V })
		}
	})
}

// FuzzPointStream holds the point stream to two properties. Any bytes
// decode to records or to an error, never a panic. And records built from
// the input survive the server's rowWriter and the client's readStream
// exactly, with frames flushed where the input says, so deltas cross frame
// boundaries. The input is a kind byte ('f' or 'w'; anything else is 'i'),
// then per record a control byte (bit 0: flush after the record) and the
// record's fields as little-endian words: t and v, or start, count, min,
// max and sum.
func FuzzPointStream(f *testing.F) {
	const (
		minI = math.MinInt64
		maxI = math.MaxInt64
	)
	var negZero, nan, payloadNaN, inf = math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Inf(1)
	u := func(v int64) uint64 { return uint64(v) }
	fb := math.Float64bits
	one := intColumn(1, packed())
	seeds := [][]byte{
		streamInput(kindInt, u(minI), u(maxI), u(minI+1), u(maxI-1), u(maxI), u(minI), u(maxI-1), u(minI+1), 0, 0, u(-1), 1),
		streamInput(kindFloat, u(minI), fb(negZero), u(maxI), fb(nan), 0, fb(payloadNaN), 1, fb(inf), u(-1), fb(-inf), 2, fb(math.MaxFloat64), 3, 1),
		streamInput(kindWindow, u(minI), 1, u(maxI), u(minI), 0, u(maxI), u(maxI), u(maxI-1), u(minI+1), u(minI), 0, 0, 0, 0, 0),
		{kindInt},
		{kindWindow, 0, 0, 0},
		// Streams as the decoder meets them.
		{'i', 0},
		streamBytes('f', frameOf(1, intColumn(2, packed()), binary.LittleEndian.AppendUint64(nil, fb(inf))), []byte{0}),
		streamBytes('w', frameOf(1, one, one, one, one, one), []byte{0}),
		streamBytes('i', frameOf(3, intColumn(1000, packed(1000, 1000)), intColumn(-5, packed(7, 1<<40))), []byte{0}),
		streamBytes('i', frameOf(1, one, one), []byte{0, 9}),
		append([]byte{'i', 1}, bytes.Repeat([]byte{0xff}, 11)...),
	}
	for _, h := range hostileStreams() {
		seeds = append(seeds, h.body)
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, want := range []byte{kindInt, kindFloat, kindWindow} {
			readStream(bytes.NewReader(data), want, func(byte, *record) error { return nil })
		}

		if len(data) == 0 {
			return
		}
		kind := data[0]
		if kind != kindFloat && kind != kindWindow {
			kind = kindInt
		}
		fields := 2
		if kind == kindWindow {
			fields = 5
		}
		var in []record
		body := streamOf(kind, func(cw *rowWriter) {
			for rest := data[1:]; len(rest) >= 1+8*fields; rest = rest[1+8*fields:] {
				var w [5]uint64
				for i := 0; i < fields; i++ {
					w[i] = binary.LittleEndian.Uint64(rest[1+8*i:])
				}
				r := record{t: int64(w[0]), v: int64(w[1]), f: math.Float64frombits(w[1])}
				switch kind {
				case kindInt:
					cw.writeInt(r.t, r.v)
				case kindFloat:
					cw.writeFloat(r.t, r.f)
				case kindWindow:
					r.b = Bucket{Start: r.t, Count: int(uint(w[1]) >> 1), Min: int64(w[2]), Max: int64(w[3]), Sum: int64(w[4])}
					cw.writeBucket(r.b)
				}
				in = append(in, r)
				if rest[0]&1 != 0 {
					cw.flush()
				}
			}
		})
		i := 0
		err := readStream(bytes.NewReader(body), kind, func(k byte, r *record) error {
			if k != kind || i >= len(in) {
				return fmt.Errorf("record %d of kind %q; wrote %d of kind %q", i, k, len(in), kind)
			}
			w := in[i]
			i++
			switch {
			case kind == kindInt && (r.t != w.t || r.v != w.v),
				kind == kindFloat && (r.t != w.t || math.Float64bits(r.f) != math.Float64bits(w.f)),
				kind == kindWindow && r.b != w.b:
				return fmt.Errorf("record %d: read %+v, wrote %+v", i-1, *r, w)
			}
			return nil
		})
		if err == nil && i != len(in) {
			err = fmt.Errorf("read %d records, wrote %d", i, len(in))
		}
		if err != nil {
			t.Fatalf("%v\nstream %x", err, body)
		}
	})
}

// streamInput builds a FuzzPointStream input of the given kind from the
// records' fields, flushing after every odd record.
func streamInput(kind byte, words ...uint64) []byte {
	fields := 2
	if kind == kindWindow {
		fields = 5
	}
	data := []byte{kind}
	for i := 0; i+fields <= len(words); i += fields {
		data = append(data, byte(i/fields))
		for _, w := range words[i : i+fields] {
			data = binary.LittleEndian.AppendUint64(data, w)
		}
	}
	return data
}
