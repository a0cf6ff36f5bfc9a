package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"bos/internal/bitio"
	"bos/internal/codec"
)

// intColumn returns an int column as a frame carries it: Δ₀, then the
// byte length and the bytes of blocks, a Blockwise column of the caller's
// making.
func intColumn(d0 int64, blocks []byte) []byte {
	col := binary.AppendVarint(nil, d0)
	col = binary.AppendUvarint(col, uint64(len(blocks)))
	return append(col, blocks...)
}

// packed is columnCodec's Blockwise column of deltas.
func packed(deltas ...int64) []byte { return columnCodec.Encode(nil, deltas) }

// frameOf returns a frame header claiming n records, then cols.
func frameOf(n uint64, cols ...[]byte) []byte {
	body := bytes.Join(cols, nil)
	f := binary.AppendUvarint(nil, n)
	f = binary.AppendUvarint(f, uint64(len(body)))
	return append(f, body...)
}

// streamBytes joins a kind byte and parts into a stream.
func streamBytes(kind byte, parts ...[]byte) []byte {
	return append([]byte{kind}, bytes.Join(parts, nil)...)
}

// hostileStream is a point stream the decoder must refuse. claim marks the
// ones whose frame header, or a packed block's count, claims more than it
// may or than the body holds: refusing them must allocate next to nothing.
type hostileStream struct {
	name  string
	kind  byte
	body  []byte
	claim bool
}

func hostileStreams() []hostileStream {
	end := []byte{0}
	t2 := intColumn(1000, packed(1000))
	v2 := intColumn(-7, packed(3))
	// A width-0 BP block whose count claims 1<<22 values in four bytes.
	bigBlock := codec.AppendUvarint(codec.AppendUvarint(nil, 1), 1<<22)
	bigBlock = append(codec.AppendUvarint(bigBlock, bitio.ZigZag(0)), 0)
	whole := frameOf(frameRecords, bytes.Repeat([]byte{0}, maxFrameLen(kindWindow, frameRecords)))
	return []hostileStream{
		{name: "frame of 4097 records", kind: kindInt, claim: true,
			body: streamBytes(kindInt, binary.AppendUvarint(nil, frameRecords+1), binary.AppendUvarint(nil, 64), make([]byte, 64), end)},
		{name: "column bytes over the bound for n", kind: kindInt, claim: true,
			body: streamBytes(kindInt, []byte{1}, binary.AppendUvarint(nil, uint64(maxFrameLen(kindInt, 1))+1), make([]byte, 64), end)},
		{name: "column bytes past the body's end", kind: kindWindow, claim: true,
			body: streamBytes(kindWindow, whole)[:64]},
		{name: "column count is not n-1", kind: kindInt,
			body: streamBytes(kindInt, frameOf(2, intColumn(1000, packed(1000, 1000)), v2), end)},
		{name: "width-0 block claiming 1<<22 values", kind: kindInt, claim: true,
			body: streamBytes(kindInt, frameOf(2, intColumn(1000, bigBlock), v2), end)},
		{name: "columns end before the frame", kind: kindInt,
			body: streamBytes(kindInt, frameOf(2, t2, v2, []byte{0}), end)},
		{name: "columns run past the frame", kind: kindInt,
			body: streamBytes(kindInt, frameOf(2, t2, v2[:len(v2)-1]), end)},
		{name: "float column short of 8n bytes", kind: kindFloat,
			body: streamBytes(kindFloat, frameOf(2, t2, make([]byte, 15)), end)},
		{name: "frame cut short by the body's end", kind: kindInt,
			body: streamBytes(kindInt, frameOf(2, t2, v2))[:6]},
		{name: "negative window count", kind: kindWindow,
			body: streamBytes(kindWindow, frameOf(1, intColumn(0, packed()), intColumn(-1, packed()),
				intColumn(0, packed()), intColumn(0, packed()), intColumn(0, packed())), end)},
	}
}

// TestReadStreamRefusesHostileFrames reads frames that claim more than
// they hold, or frame their columns wrongly, and requires an error. A
// frame header's claim sizes nothing: refusing one allocates under 1 KiB.
func TestReadStreamRefusesHostileFrames(t *testing.T) {
	nop := func(byte, *record) error { return nil }
	for _, h := range hostileStreams() {
		r := bytes.NewReader(h.body)
		if err := readStream(r, h.kind, nop); err == nil {
			t.Errorf("%s: no error", h.name)
		}
		if !h.claim || raceEnabled {
			continue
		}
		read := func() {
			r.Reset(h.body)
			readStream(r, h.kind, nop)
		}
		// Warm the pool of the one P that AllocsPerRun runs on.
		testing.AllocsPerRun(1, read)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		testing.AllocsPerRun(runs, read)
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); per >= 1<<10 {
			t.Errorf("%s: refusing it allocated %d bytes", h.name, per)
		}
	}
}

// TestStreamReaderGrowsForArrivedBytes checks that a claim alone does not
// grow the decode buffer: need grows it only when it is full of bytes that
// arrived, and then by doubling.
func TestStreamReaderGrowsForArrivedBytes(t *testing.T) {
	s := &streamReader{buf: make([]byte, 16), body: bytes.NewReader(make([]byte, 10))}
	if err := s.need(1 << 20); !errors.Is(err, io.ErrUnexpectedEOF) || len(s.buf) != 16 {
		t.Errorf("need(1<<20) of a 10-byte body: %v, buffer of %d bytes; want a cut-short error and 16", err, len(s.buf))
	}
	s = &streamReader{buf: make([]byte, 16), body: bytes.NewReader(make([]byte, 40))}
	if err := s.need(40); err != nil || len(s.buf) != 64 {
		t.Errorf("need(40) of a 40-byte body: %v, buffer of %d bytes; want 64", err, len(s.buf))
	}
}

// TestPointStreamFrameAllocs checks that a warm writer encodes a whole
// 'i' frame, and warm scratch decodes it, without allocating.
func TestPointStreamFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	req := httptest.NewRequest(http.MethodGet, "/query", nil)
	req.Header.Set("Accept", pointsMediaType)
	cw := newRowWriter(&discardWriter{h: http.Header{}}, req, "int", kindInt)
	defer cw.release()
	write := func(cw *rowWriter) {
		for k := 0; k < frameRecords; k++ {
			cw.writeInt(int64(k)*1000, int64(k%977)-int64(k%3)<<40)
		}
	}
	encode := func() {
		write(cw)
		if err := cw.flush(); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if a := testing.AllocsPerRun(20, encode); a != 0 {
		t.Errorf("encoding a %d-record frame: %v allocations", frameRecords, a)
	}

	body := streamOf(kindInt, write)
	r := bytes.NewReader(body)
	got := 0
	count := func(byte, *record) error { got++; return nil }
	decode := func() {
		r.Reset(body)
		if err := readStream(r, kindInt, count); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if a := testing.AllocsPerRun(20, decode); a != 0 {
		t.Errorf("decoding a %d-record frame: %v allocations", frameRecords, a)
	}
	if got != 22*frameRecords {
		t.Errorf("decoded %d records in 22 reads, want %d", got, 22*frameRecords)
	}
}

// TestPointStreamFrames pins where frames fall: a full frame goes out only
// when the next row arrives, so an answer of frameRecords rows is one frame
// in one write, and one more row starts a second frame.
func TestPointStreamFrames(t *testing.T) {
	for _, rows := range []int{1, frameRecords, frameRecords + 1, 3 * frameRecords} {
		rec := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
		req := httptest.NewRequest(http.MethodGet, "/query", nil)
		req.Header.Set("Accept", pointsMediaType)
		cw := newRowWriter(rec, req, "float", kindFloat)
		for k := 0; k < rows; k++ {
			cw.writeFloat(int64(k), math.Sqrt(float64(k)))
		}
		cw.end()
		cw.release()
		if want := (rows + frameRecords - 1) / frameRecords; rec.writes != want {
			t.Errorf("%d rows: %d writes, want %d", rows, rec.writes, want)
		}
		i := 0
		err := readStream(bytes.NewReader(rec.Body.Bytes()), kindFloat, func(_ byte, r *record) error {
			if r.t != int64(i) || r.f != math.Sqrt(float64(i)) {
				t.Fatalf("%d rows: record %d reads %d,%v", rows, i, r.t, r.f)
			}
			i++
			return nil
		})
		if err != nil || i != rows {
			t.Errorf("%d rows: read %d, %v", rows, i, err)
		}
	}
}

// countingWriter counts the writes a response gets.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(p)
}
