package server

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"bos/internal/dataset"
)

// discardWriter is a ResponseWriter that keeps nothing it is sent.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// pointSink keeps the decode benchmark's callback from being dead code.
var pointSink int64

// BenchmarkPointStream measures the /query wire layer alone: the server's
// rowWriter encoding an answer into a ResponseWriter that discards it, and
// the client's readStream decoding the same answer from memory. The answers
// are a 4096-point 'i' scan of each of the twelve dataset stand-ins and an
// 'f' scan of each float stand-in, both on a one-second grid as bosperf
// stores them, and a 16-bucket 'w' answer over the first stand-in. Each
// reports ns/point, B/point (the answer's body bytes) and allocs/op.
//
// The file uses only rowWriter, readStream and the stream's kind bytes,
// whose names and signatures the varint-record stream had too, so the same
// benchmark compiles against that revision for before/after pairs
// (EXPERIMENTS.md, "Columnar /query frames").
func BenchmarkPointStream(b *testing.B) {
	const points = 4096
	ts := func(k int) int64 { return 1_700_000_000_000 + int64(k)*1000 }
	type answer struct {
		name    string
		kind    byte
		records int
		write   func(cw *rowWriter)
	}
	var answers []answer
	for _, d := range dataset.All() {
		vals := d.Ints(points)
		answers = append(answers, answer{"i/" + d.Abbr, kindInt, points, func(cw *rowWriter) {
			for k, v := range vals {
				cw.writeInt(ts(k), v)
			}
		}})
	}
	for _, d := range dataset.All() {
		if !d.Float {
			continue
		}
		vals := d.Floats(points)
		answers = append(answers, answer{"f/" + d.Abbr, kindFloat, points, func(cw *rowWriter) {
			for k, v := range vals {
				cw.writeFloat(ts(k), v)
			}
		}})
	}
	first := dataset.All()[0]
	vals := first.Ints(points)
	var buckets []Bucket
	for w := 0; w < 16; w++ {
		bk := Bucket{Start: ts(w * points / 16), Min: math.MaxInt64, Max: math.MinInt64}
		for _, v := range vals[w*points/16 : (w+1)*points/16] {
			bk.Count++
			bk.Min, bk.Max, bk.Sum = min(bk.Min, v), max(bk.Max, v), bk.Sum+v
		}
		buckets = append(buckets, bk)
	}
	answers = append(answers, answer{"w/" + first.Abbr, kindWindow, len(buckets), func(cw *rowWriter) {
		for _, bk := range buckets {
			cw.writeBucket(bk)
		}
	}})

	for _, a := range answers {
		body := streamOf(a.kind, a.write)
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*a.records), "ns/point")
			b.ReportMetric(float64(len(body))/float64(a.records), "B/point")
		}
		b.Run("encode/"+a.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, "/query", nil)
			req.Header.Set("Accept", pointsMediaType)
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cw := newRowWriter(w, req, "int", a.kind)
				a.write(cw)
				if err := cw.end(); err != nil {
					b.Fatal(err)
				}
				cw.release()
			}
			report(b)
		})
		b.Run("decode/"+a.name, func(b *testing.B) {
			r := bytes.NewReader(body)
			var sum int64
			fn := func(_ byte, rec *record) error {
				sum += rec.t ^ rec.v ^ int64(math.Float64bits(rec.f)) ^ rec.b.Sum
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(body)
				if err := readStream(r, a.kind, fn); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
			pointSink = sum
		})
	}
}
