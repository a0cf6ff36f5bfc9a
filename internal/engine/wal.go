package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"bos/internal/tsfile"
)

// The write-ahead log makes the memtable durable: every insert batch appends
// one length-prefixed, CRC-protected record before the insert is
// acknowledged. Records are framed by the writers (group commit, see
// groupcommit.go) and written by one leader per group, so SyncWAL costs one
// fsync per group of concurrent batches rather than one per batch.
//
// The log is segmented at flush time: when a snapshot is taken, the current
// wal.log is sealed by renaming it to wal-NNNNNN.log (NNNNNN = the sequence
// of the data file the snapshot becomes) and a fresh wal.log starts. Sealed
// segments are deleted once the data file is durably installed; if the flush
// fails, they survive and keep covering the restored memtable. On Open the
// engine replays sealed segments in sequence order, then wal.log, so a crash
// at any point of the flush pipeline loses nothing. A torn final record (the
// only corruption a crash can produce under append semantics) is detected by
// its CRC and ends the replay, as after a crash.
//
// Record layout:
//
//	varint total length | crc32 (4 bytes, IEEE, over the payload) | payload
//	payload: kind byte (walInsert | walTombstone | walFloat | walCarried),
//	then
//	  insert:    varint series-name length | name | varint count | count x
//	             (zigzag-varint t, zigzag-varint v)
//	  tombstone: varint series-name length | name | zigzag-varint minT |
//	             zigzag-varint maxT | varint seq
//	  float:     varint series-name length | name | varint count | count x
//	             (zigzag-varint t, uvarint float bits)
//	  carried:   the tombstone payload
//
// Replay applies records in log order. A tombstone record prunes the points
// of its series replayed before it, as DeleteRange pruned the memtable; a
// carried record, which a flush writes after inserts newer than its delete,
// only joins the tombstone list.

const walName = "wal.log"

// wal is the append-only log. Methods are called under walMu (or by the one
// group-commit leader that holds the walBusy token).
type wal struct {
	dir  string
	path string
	f    *os.File
	w    *bufio.Writer
	// scratch is the reusable payload build buffer: record framing borrows
	// it under walMu instead of allocating a fresh payload slice per batch.
	scratch []byte
	// groupBuf recycles the framed-record buffer of the last committed
	// group into the next one.
	groupBuf []byte
}

func openWAL(dir string) (*wal, error) {
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: wal: %w", err)
	}
	return &wal{dir: dir, path: path, f: f, w: bufio.NewWriter(f)}, nil
}

// writeBuf appends pre-framed record bytes to the current segment.
func (l *wal) writeBuf(buf []byte) error {
	if _, err := l.w.Write(buf); err != nil {
		return fmt.Errorf("engine: wal: %w", err)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("engine: wal: %w", err)
	}
	return nil
}

// sync forces the log to stable storage.
func (l *wal) sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// rotate seals the current log as the numbered segment paired with the
// snapshot's data file and starts a fresh wal.log. On rename failure the old
// log is reopened so the engine stays usable and the flush aborts.
func (l *wal) rotate(seq int) error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("engine: wal: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("engine: wal: %w", err)
	}
	reopen := func() error {
		f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("engine: wal: %w", err)
		}
		l.f = f
		l.w.Reset(f)
		return nil
	}
	sealed := filepath.Join(l.dir, fmt.Sprintf("wal-%06d.log", seq))
	if err := os.Rename(l.path, sealed); err != nil {
		if rerr := reopen(); rerr != nil {
			return rerr
		}
		return fmt.Errorf("engine: wal: %w", err)
	}
	return reopen()
}

// removeSealed deletes every sealed segment; called once the data file that
// replaces their records is durably installed.
func (l *wal) removeSealed() {
	segs, err := filepath.Glob(filepath.Join(l.dir, "wal-*.log"))
	if err != nil {
		return
	}
	for _, s := range segs {
		os.Remove(s)
	}
}

func (l *wal) close() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Close()
}

// frameRecord appends one framed record (varint length, CRC, payload) to
// dst — the group-commit framing kernel, run under walMu per batch.
//
//bos:hotpath
func frameRecord(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	dst = append(dst, crc[:]...)
	return append(dst, payload...)
}

// appendPoints builds one insert or float record payload into dst; value
// appends one value.
//
//bos:hotpath
func appendPoints[V int64 | float64](dst []byte, kind byte, series string, pts []tsfile.Sample[V], value func([]byte, V) []byte) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(series)))
	dst = append(dst, series...)
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = binary.AppendVarint(dst, p.T)
		dst = value(dst, p.V)
	}
	return dst
}

// replayWAL reads every intact record of the sealed segments (in sequence
// order) and then the active log. A record with a bad CRC or a truncated
// tail ends the whole replay cleanly (crash semantics): nothing after the
// tear can be trusted to be older than it. applyTombstone is told whether
// the record is a carried copy.
func replayWAL(dir string, applyInsert func(series string, pts []tsfile.Point), applyTombstone func(ts tombstone, carried bool), applyFloat func(series string, pts []tsfile.FloatPoint)) error {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return fmt.Errorf("engine: wal: %w", err)
	}
	sort.Strings(segs) // zero-padded names sort in sequence order
	for _, path := range segs {
		clean, err := replayWALFile(path, applyInsert, applyTombstone, applyFloat)
		if err != nil {
			return err
		}
		if !clean {
			return nil
		}
	}
	_, err = replayWALFile(filepath.Join(dir, walName), applyInsert, applyTombstone, applyFloat)
	return err
}

// replayWALFile replays one log file. clean reports whether the file ended
// at a record boundary (false = torn tail or corruption stopped the replay).
func replayWALFile(path string, applyInsert func(series string, pts []tsfile.Point), applyTombstone func(ts tombstone, carried bool), applyFloat func(series string, pts []tsfile.FloatPoint)) (clean bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("engine: wal: %w", err)
	}
	for len(data) > 0 {
		plen, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < plen+4 {
			return false, nil // torn tail
		}
		data = data[n:]
		crc := binary.LittleEndian.Uint32(data[:4])
		payload := data[4 : 4+plen]
		data = data[4+plen:]
		if crc32.ChecksumIEEE(payload) != crc {
			return false, nil // corrupt record: stop, as after a crash
		}
		if len(payload) == 0 {
			return false, nil
		}
		kind := payload[0]
		body := payload[1:]
		switch kind {
		case walInsert:
			series, pts, ok := decodePoints(body, binary.Varint)
			if !ok {
				return false, nil
			}
			applyInsert(series, pts)
		case walTombstone, walCarried:
			ts, ok := decodeTombstonePayload(body)
			if !ok {
				return false, nil
			}
			applyTombstone(ts, kind == walCarried)
		case walFloat:
			series, pts, ok := decodePoints(body, floatBits)
			if !ok {
				return false, nil
			}
			applyFloat(series, pts)
		default:
			return false, nil // unknown record kind: stop as after a crash
		}
	}
	return true, nil
}

// decodePoints parses the body of an insert or float record; value decodes
// one value and reports the bytes it used (<= 0 on error). Every point takes
// at least two bytes, a timestamp and a value varint, so a count above half
// the remaining payload marks the record malformed before it can size an
// allocation.
func decodePoints[V int64 | float64](payload []byte, value func([]byte) (V, int)) (string, []tsfile.Sample[V], bool) {
	nameLen, n := binary.Uvarint(payload)
	if n <= 0 || uint64(len(payload)-n) < nameLen {
		return "", nil, false
	}
	payload = payload[n:]
	name := string(payload[:nameLen])
	payload = payload[nameLen:]
	count, n := binary.Uvarint(payload)
	if n <= 0 || count > uint64(len(payload)-n)/2 {
		return "", nil, false
	}
	payload = payload[n:]
	pts := make([]tsfile.Sample[V], 0, count)
	for i := uint64(0); i < count; i++ {
		t, n := binary.Varint(payload)
		if n <= 0 {
			return "", nil, false
		}
		payload = payload[n:]
		v, n := value(payload)
		if n <= 0 {
			return "", nil, false
		}
		payload = payload[n:]
		pts = append(pts, tsfile.Sample[V]{T: t, V: v})
	}
	return name, pts, true
}

// sortedWALSeries is a test helper: the series names present in the log
// (sealed segments included).
func sortedWALSeries(dir string) ([]string, error) {
	set := map[string]bool{}
	err := replayWAL(dir,
		func(series string, _ []tsfile.Point) { set[series] = true },
		func(ts tombstone, _ bool) { set[ts.series] = true },
		func(series string, _ []tsfile.FloatPoint) { set[series] = true })
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}
