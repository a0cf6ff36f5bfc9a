package engine

import (
	"encoding/binary"
	"errors"
	"math"

	"bos/internal/tsfile"
)

// Float series live beside integer series: one engine holds both, each
// series locked to one kind at first insert. Float points flow through the
// same WAL / memtable / flush / merge / tombstone machinery; on disk they
// use tsfile's scaled or raw float chunks.

// ErrSeriesKind reports an int operation on a float series or vice versa.
var ErrSeriesKind = errors.New("engine: series holds the other value kind")

// InsertFloat adds one float point.
func (e *Engine) InsertFloat(series string, t int64, v float64) error {
	return e.InsertFloatBatch(series, []tsfile.FloatPoint{{T: t, V: v}})
}

// InsertFloatBatch adds many float points to one series, with the same
// group-commit durability protocol as InsertBatch.
func (e *Engine) InsertFloatBatch(series string, pts []tsfile.FloatPoint) error {
	return insert(e, floatCol, series, pts)
}

// QueryFloats returns the float points of a series in [minT, maxT], merging
// files and the memtable with newest-wins semantics and honoring tombstones.
func (e *Engine) QueryFloats(series string, minT, maxT int64) ([]tsfile.FloatPoint, error) {
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	return query(e, floatCol, series, minT, maxT)
}

// walFloat is the WAL record kind for float insert batches.
const walFloat byte = 2

// appendFloatBits appends one float record value (raw bits as a uvarint).
func appendFloatBits(dst []byte, v float64) []byte {
	return binary.AppendUvarint(dst, math.Float64bits(v))
}

// floatBits decodes one float record value.
func floatBits(b []byte) (float64, int) {
	bits, n := binary.Uvarint(b)
	return math.Float64frombits(bits), n
}
