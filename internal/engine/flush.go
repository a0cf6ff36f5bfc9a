package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"bos/internal/tsfile"
)

// The flush pipeline: snapshot -> encode -> commit.
//
// takeSnapshot swaps every stripe's memtable maps into the stripe's flush
// maps — O(stripes) pointer swaps under the locks — seals and rotates the
// WAL, and releases everything, so inserts and queries proceed while
// encodeSnapshot does the expensive work (packing every series, fanned out
// across encode workers) with no engine lock held. commitSnapshot then takes
// structMu once more, briefly, to splice the new file in. The flush maps
// stay visible to queries for the whole flight (memSnapshot merges them
// under the stripe read lock), and on failure rollbackSnapshot merges them
// back into the memtable, applying any tombstone that arrived mid-flight.
// flushMu serializes the pipeline: one snapshot in flight at a time, and
// threshold-crossing writers skip out on TryLock instead of piling up.

// testFlushHook, when set, is called between pipeline stages ("snapshot",
// "encode", "encoded", "renamed"); a returned error aborts the flush there
// (crash-injection and stall tests).
var testFlushHook func(stage string) error

// testWALSyncHook, when set, runs between the group-commit leader's write
// and its return (slow-disk tests).
var testWALSyncHook func()

func flushHook(stage string) error {
	if testFlushHook != nil {
		return testFlushHook(stage)
	}
	return nil
}

// flushSnap describes one in-flight snapshot.
type flushSnap struct {
	seq       int   // sequence of the data file being written
	count     int64 // points captured across all stripes
	installed bool  // the data file made it into the file list
}

// Flush writes the memtable to a new data file. A no-op when empty. Inserts
// are blocked only for the snapshot swap, not for the encoding.
func (e *Engine) Flush() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	return e.flushSnapshot(false)
}

// maybeFlush is the threshold-crossing writer's entry point: if a flush is
// already in flight, the points will ride the next one — don't queue up.
// The threshold is re-checked under flushMu: the caller's crossing may be
// stale by a whole commit (it was observed before the WAL wait), and a
// cascade of stale crossings would otherwise grind out tiny files.
func (e *Engine) maybeFlush() error {
	if !e.flushMu.TryLock() {
		return nil
	}
	defer e.flushMu.Unlock()
	if e.memPts.Load() < int64(e.opt.flushThreshold()) {
		return nil
	}
	return e.flushSnapshot(false)
}

// flushSnapshot runs one snapshot/encode/commit cycle. Caller holds flushMu.
// final is Close's last flush, which runs with the closed flag already set.
func (e *Engine) flushSnapshot(final bool) error {
	snap, err := e.takeSnapshot(final)
	if err != nil || snap == nil {
		return err
	}
	err = flushHook("snapshot")
	var path string
	if err == nil {
		path, err = e.encodeSnapshot(snap)
	}
	if err == nil {
		err = e.commitSnapshot(snap, path)
	}
	if err != nil && !snap.installed {
		e.rollbackSnapshot(snap)
	}
	return err
}

// takeSnapshot captures the memtable under the locks and rotates the WAL.
// Returns (nil, nil) when there is nothing to flush.
func (e *Engine) takeSnapshot(final bool) (*flushSnap, error) {
	e.structMu.Lock()
	defer e.structMu.Unlock()
	if e.closed.Load() && !final {
		return nil, ErrClosed
	}
	e.lockStripes()
	count := e.memPts.Load()
	if count == 0 {
		e.unlockStripes()
		return nil, nil
	}
	seq := e.nextSeq
	e.nextSeq++
	if e.log != nil {
		e.walMu.Lock()
		for e.walBusy {
			e.walCond.Wait()
		}
		// Seal the forming group onto the old segment, then rotate: the
		// snapshot includes those points, so their records must live (and
		// die) with the segment this data file replaces.
		err := e.sealFormingGroup()
		if err == nil {
			err = e.log.rotate(seq)
		}
		e.walMu.Unlock()
		if err != nil {
			e.nextSeq = seq
			e.unlockStripes()
			return nil, err
		}
	}
	for i := range e.stripes {
		st := &e.stripes[i]
		st.ints.flush, st.ints.mem = st.ints.mem, map[string][]tsfile.Point{}
		st.floats.flush, st.floats.mem = st.floats.mem, map[string][]tsfile.FloatPoint{}
	}
	e.flushSeq = seq
	e.unlockStripes()
	return &flushSnap{seq: seq, count: count}, nil
}

// encodeSnapshot packs the snapshot into a durable temporary file and
// renames it into place. No engine lock is held: the flush maps are
// immutable while the snapshot is in flight (inserts go to the fresh
// memtable maps; DeleteRange prunes only those), so reading them without
// the stripe locks is safe.
func (e *Engine) encodeSnapshot(snap *flushSnap) (string, error) {
	path := filepath.Join(e.opt.Dir, fmt.Sprintf("data-%06d.tsf", snap.seq))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("engine: %w", err)
	}
	fail := func(err error) (string, error) {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	// Encode in parallel, write in sorted order (ints then floats, exactly
	// the order a serial flush appends), so the file bytes are identical to
	// serial output regardless of worker count.
	jobs := append(flushJobs(e, intCol), flushJobs(e, floatCol)...)
	chunks := make([]tsfile.EncodedChunk, len(jobs))
	errs := make([]error, len(jobs))
	fanOut(e.opt.encodeWorkers(), len(jobs), func(i int) {
		chunks[i], errs[i] = jobs[i].encode()
	})
	if err := flushHook("encode"); err != nil {
		return fail(err)
	}
	w := tsfile.NewWriter(f, e.opt.File)
	for i, c := range chunks {
		if errs[i] != nil {
			return fail(fmt.Errorf("engine: flush %s: %w", jobs[i].name, errs[i]))
		}
		if err := w.AppendEncoded(jobs[i].name, c); err != nil {
			return fail(fmt.Errorf("engine: %w", err))
		}
	}
	if err := w.Close(); err != nil {
		return fail(fmt.Errorf("engine: %w", err))
	}
	if err := flushHook("encoded"); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("engine: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("engine: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("engine: %w", err)
	}
	// The "renamed" stage simulates a crash after the durable rename: the
	// file stays on disk (as it would), and recovery must handle it.
	if err := flushHook("renamed"); err != nil {
		return "", err
	}
	return path, nil
}

// commitSnapshot installs the flushed file — the only phase that takes
// structMu, and it holds the locks just long enough to splice the file in,
// clear the flush maps and retire the sealed WAL segments.
func (e *Engine) commitSnapshot(snap *flushSnap, path string) error {
	e.structMu.Lock()
	defer e.structMu.Unlock()
	df, err := e.openDataFile(path)
	if err != nil {
		return err
	}
	e.files = append(e.files, df)
	e.gen++ // in-flight scan cursors revalidate against the new file list
	e.lockStripes()
	for i := range e.stripes {
		e.stripes[i].ints.flush = nil
		e.stripes[i].floats.flush = nil
	}
	e.unlockStripes()
	e.memPts.Add(-snap.count)
	snap.installed = true
	if e.log == nil {
		return nil
	}
	// The data file covers every record in the sealed segments; the fresh
	// log restarts with only the still-pending tombstones (they mask file
	// data until compaction).
	e.walMu.Lock()
	var werr error
	for e.walBusy {
		e.walCond.Wait()
	}
	for _, ts := range e.tombs {
		if werr = e.log.appendTombstone(ts); werr != nil {
			break
		}
	}
	e.log.removeSealed()
	e.walMu.Unlock()
	return werr
}

// rollbackSnapshot merges the flush maps back into the memtable after a
// failed encode or commit. Restored points sit in front of (older than) any
// point inserted mid-flight, and tombstones that arrived mid-flight are
// applied to them — DeleteRange could not prune the flush maps while the
// encoder was reading them. The sealed WAL segments stay on disk covering
// the restored points; the next successful flush retires them.
func (e *Engine) rollbackSnapshot(snap *flushSnap) {
	e.structMu.Lock()
	defer e.structMu.Unlock()
	e.lockStripes()
	var dropped int64
	for i := range e.stripes {
		st := &e.stripes[i]
		dropped += restore(e, &st.ints, snap.seq) + restore(e, &st.floats, snap.seq)
	}
	e.memPts.Add(-dropped)
	e.unlockStripes()
}

// fanOut runs fn(i) for every i in [0, n) across at most workers
// goroutines. Callers write results into per-index slots, so assignment
// order does not matter.
//
//bos:hotpath
func fanOut(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					wg.Done()
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
