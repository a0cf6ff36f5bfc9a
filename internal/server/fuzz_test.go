package server

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
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

// FuzzParseInt checks the client's byte parser against
// strconv.ParseInt(s, 10, 64) on arbitrary input: the same value and the
// same error text.
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
		got, gotErr := parseInt(b)
		want, wantErr := strconv.ParseInt(string(b), 10, 64)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("parseInt(%q) = %d, %v; strconv.ParseInt: %d, %v", b, got, gotErr, want, wantErr)
		}
	})
}
