package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// tombstone marks a deleted time range of one series. seq is the file
// sequence number at creation time: only data files with a smaller sequence
// (i.e. written before the delete) are masked, so inserts made after the
// delete survive their flush. Compaction applies tombstones and drops them.
type tombstone struct {
	series     string
	minT, maxT int64
	seq        int
}

// tombstones is a list of pending range deletes.
type tombstones []tombstone

// hide reports whether a point of series from the file with the given
// sequence is deleted.
func (tombs tombstones) hide(series string, seq int, t int64) bool {
	for _, ts := range tombs {
		if ts.series == series && seq < ts.seq && t >= ts.minT && t <= ts.maxT {
			return true
		}
	}
	return false
}

// of returns the tombstones of series that overlap [minT, maxT], newest
// first, so the ones newer than a given file are a prefix. It allocates only
// when there are some.
func (tombs tombstones) of(series string, minT, maxT int64) tombstones {
	var out tombstones
	for _, ts := range tombs {
		if ts.series == series && ts.minT <= maxT && ts.maxT >= minT {
			out = append(out, ts)
		}
	}
	slices.SortStableFunc(out, func(a, b tombstone) int { return cmp.Compare(b.seq, a.seq) })
	return out
}

// covers reports whether a tombstone in tombs spans t, whatever its series
// and sequence.
func (tombs tombstones) covers(t int64) bool {
	for _, ts := range tombs {
		if t >= ts.minT && t <= ts.maxT {
			return true
		}
	}
	return false
}

// DeleteRange removes every stored point of series with minT <= T <= maxT.
// Points inserted after the delete are unaffected. The delete is durable
// (WAL, via the shared commit group) and survives restarts; compaction
// physically reclaims the space. An in-flight flush snapshot is not pruned
// here (the encoder is reading it) — the tombstone's sequence covers the
// file that snapshot becomes, and queries apply it to the snapshot points.
func (e *Engine) DeleteRange(series string, minT, maxT int64) error {
	if minT > maxT {
		return fmt.Errorf("engine: empty delete range [%d, %d]", minT, maxT)
	}
	e.structMu.Lock()
	if e.closed.Load() {
		e.structMu.Unlock()
		return ErrClosed
	}
	ts := tombstone{series: series, minT: minT, maxT: maxT, seq: e.nextSeq}
	st := e.stripe(series)
	st.mu.Lock()
	var g *walGroup
	var leader bool
	if e.log != nil {
		g, leader = e.walEnqueue(func(dst []byte) []byte {
			return appendTombstonePayload(dst, walTombstone, ts)
		})
	}
	// The memtable is newer than any file but older than the delete, and it
	// flushes with a sequence at or above the tombstone's, so the tombstone
	// would miss it: drop matching buffered points directly.
	e.memPts.Add(-prune(&st.ints, series, minT, maxT) - prune(&st.floats, series, minT, maxT))
	st.mu.Unlock()
	e.tombs = append(e.tombs, ts)
	e.gen++ // in-flight scan cursors must observe the new tombstone
	// Tombstones mask at scan time, so cached chunks are not stale — but a
	// deleted range's decoded columns are mostly dead weight; evict them.
	e.cache.InvalidateSeries(series)
	e.structMu.Unlock()
	if g != nil {
		return e.walAwait(g, leader)
	}
	return nil
}

// WAL record kinds (first payload byte after the record framing). A
// walTombstone record is a delete in log order: replay applies it to the
// points replayed before it. A walCarried record is a pending tombstone a
// flush copied into the fresh log, after inserts newer than the delete, so
// replay only adds it to the tombstone list.
const (
	walInsert    byte = 0
	walTombstone byte = 1
	walCarried   byte = 3
)

// appendTombstonePayload builds one delete record payload of the given kind
// (walTombstone or walCarried) into dst.
func appendTombstonePayload(dst []byte, kind byte, ts tombstone) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(ts.series)))
	dst = append(dst, ts.series...)
	dst = binary.AppendVarint(dst, ts.minT)
	dst = binary.AppendVarint(dst, ts.maxT)
	dst = binary.AppendUvarint(dst, uint64(ts.seq))
	return dst
}

// appendCarried writes one framed carried-tombstone record directly, outside
// any commit group (the flush-commit re-append path, under walMu with
// walBusy waited out).
func (l *wal) appendCarried(ts tombstone) error {
	l.scratch = appendTombstonePayload(l.scratch[:0], walCarried, ts)
	return l.writeBuf(frameRecord(nil, l.scratch))
}

func decodeTombstonePayload(payload []byte) (tombstone, bool) {
	var ts tombstone
	nameLen, n := binary.Uvarint(payload)
	if n <= 0 || uint64(len(payload)-n) < nameLen {
		return ts, false
	}
	payload = payload[n:]
	ts.series = string(payload[:nameLen])
	payload = payload[nameLen:]
	var k int
	if ts.minT, k = binary.Varint(payload); k <= 0 {
		return ts, false
	}
	payload = payload[k:]
	if ts.maxT, k = binary.Varint(payload); k <= 0 {
		return ts, false
	}
	payload = payload[k:]
	seq, k := binary.Uvarint(payload)
	if k <= 0 {
		return ts, false
	}
	ts.seq = int(seq)
	return ts, true
}
