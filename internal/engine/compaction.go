package engine

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"bos/internal/tsfile"
)

// Compaction is split into three phases so the merge — the expensive part —
// runs without the engine lock and concurrent inserts/queries proceed:
//
//  1. SnapshotCompaction (brief write lock): pin a contiguous run of data
//     files and the tombstones known so far.
//  2. Compaction.Merge (no lock): stream the run through a newest-wins merge
//     into a .tmp file, applying snapshot tombstones and, per series, an
//     optional adaptive packer choice (internal/maintain supplies one built
//     on the BOS cost model / size measurement).
//  3. Compaction.Commit (brief write lock): conflict-check, atomically rename
//     the .tmp over the run's newest file and splice the file list.
//
// The merged output reuses the sequence number (and path) of the newest input
// file. That keeps two invariants that a fresh sequence would break for
// partial runs: file-name sort order equals freshness order after a restart,
// and a crash or failed open after the rename can never make a later flush
// reuse the output's sequence and clobber it (the old Compact bug — the
// output sequence already exists, and nextSeq stays strictly above it).
//
// Tombstones created while a merge is in flight are not applied to it; they
// keep masking the output because the output's sequence predates them. A
// tombstone is dropped at commit only when no remaining file has a smaller
// sequence, i.e. when it can no longer mask anything.

// ErrCompacting reports a second compaction while one is in flight;
// compactions are serialized.
var ErrCompacting = errors.New("engine: compaction already in flight")

// ErrCompactConflict reports that the engine's file list changed incompatibly
// between snapshot and commit (e.g. the engine was closed and reopened).
var ErrCompactConflict = errors.New("engine: compaction conflict: snapshot files no longer present")

// testOpenDataFileErr, when set (tests only), injects an open failure for a
// given path so error paths after the atomic rename can be exercised.
var testOpenDataFileErr func(path string) error

// FileInfo describes one data file for compaction policy decisions.
type FileInfo struct {
	Seq    int
	Bytes  int64
	Series int
}

// FileInfos lists the data files in freshness order (ascending sequence).
func (e *Engine) FileInfos() []FileInfo {
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	out := make([]FileInfo, 0, len(e.files))
	for _, df := range e.files {
		info := FileInfo{Seq: df.seq, Series: len(df.reader.Series())}
		if st, err := df.f.Stat(); err == nil {
			info.Bytes = st.Size()
		}
		out = append(out, info)
	}
	return out
}

// SeriesData is the merged content of one series handed to a PackerChooser.
// Exactly one of Points / Floats is non-nil.
type SeriesData struct {
	Name   string
	Points []tsfile.Point
	Floats []tsfile.FloatPoint
}

// PackerChooser picks the packing operator for one compacted series. It
// returns a packer name from the shared registry, or "" to keep the file's
// default packer. It is called outside the engine lock, and must be safe
// for concurrent calls: the merge fans series across encode workers.
type PackerChooser func(SeriesData) string

// CompactStats summarizes one committed compaction.
type CompactStats struct {
	Files       int   // input files merged
	Series      int   // series written
	Points      int   // points written
	BytesBefore int64 // encoded chunk payload bytes across the inputs
	BytesAfter  int64 // encoded chunk payload bytes in the output
	// SeriesPackers maps each series to the packer chosen by the
	// PackerChooser; series left on the file default are absent.
	SeriesPackers map[string]string
}

// Compaction is one in-flight snapshot/merge/commit cycle.
type Compaction struct {
	e     *Engine
	files []*dataFile // the pinned contiguous run, freshness order
	// inputs are views of files whose readers bypass the chunk cache. The
	// merge reads each chunk once and Commit deletes the files, so caching
	// their chunks would only evict hot entries. Commit's conflict check
	// compares the live pointers in files.
	inputs  []*dataFile
	tombs   tombstones // tombstones at snapshot time (applied during merge)
	outSeq  int
	outPath string
	tmpPath string
	stats   CompactStats
	merged  bool
	done    bool
}

// SnapshotCompaction pins the data files with the given sequence numbers for
// merging. The files must form a contiguous run of the engine's file list so
// the merged output can take the run's place without reordering freshness.
// Only one compaction may be in flight per engine.
func (e *Engine) SnapshotCompaction(seqs []int) (*Compaction, error) {
	if len(seqs) == 0 {
		return nil, errors.New("engine: empty compaction run")
	}
	e.structMu.Lock()
	defer e.structMu.Unlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.compacting {
		return nil, ErrCompacting
	}
	pos := make([]int, 0, len(seqs))
	bySeq := map[int]int{}
	for i, df := range e.files {
		bySeq[df.seq] = i
	}
	for _, seq := range seqs {
		i, ok := bySeq[seq]
		if !ok {
			return nil, fmt.Errorf("engine: compaction run: no data file with seq %d", seq)
		}
		pos = append(pos, i)
	}
	sort.Ints(pos)
	for k := 1; k < len(pos); k++ {
		if pos[k] == pos[k-1] {
			return nil, fmt.Errorf("engine: compaction run: duplicate seq")
		}
		if pos[k] != pos[k-1]+1 {
			return nil, fmt.Errorf("engine: compaction run: files %d and %d are not adjacent", e.files[pos[k-1]].seq, e.files[pos[k]].seq)
		}
	}
	run := e.files[pos[0] : pos[len(pos)-1]+1]
	last := run[len(run)-1]
	inputs := make([]*dataFile, len(run))
	for i, df := range run {
		inputs[i] = &dataFile{seq: df.seq, reader: df.reader.WithoutCache()}
	}
	c := &Compaction{
		e:       e,
		files:   append([]*dataFile(nil), run...),
		inputs:  inputs,
		tombs:   append(tombstones(nil), e.tombs...),
		outSeq:  last.seq,
		outPath: last.path,
		tmpPath: last.path + ".compact.tmp",
	}
	e.compacting = true
	return c, nil
}

// seriesIsFloat reports whether any snapshot file stores float chunks for the
// series.
func (c *Compaction) seriesIsFloat(name string) bool {
	for _, df := range c.files {
		if fileKind(df.reader, name) == floatCol.kind {
			return true
		}
	}
	return false
}

// mergedSeries is one series' merge result, encoded.
type mergedSeries struct {
	chunk      tsfile.EncodedChunk
	packerName string
	count      int
	err        error
}

// Merge builds the merged output as a temporary file. It runs entirely
// outside the engine lock: the snapshot readers are immutable and their file
// handles support concurrent reads. Series are merged and encoded in
// parallel across Options.EncodeWorkers, then written in sorted-name order,
// so the output bytes are identical to a serial merge. choose, when non-nil,
// picks the packer for each series (adaptive repacking); nil keeps the
// engine's default.
func (c *Compaction) Merge(choose PackerChooser) error {
	if c.merged || c.done {
		return errors.New("engine: compaction already merged or finished")
	}
	f, err := os.Create(c.tmpPath)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(c.tmpPath)
		return err
	}
	names := map[string]bool{}
	for _, df := range c.files {
		for _, s := range df.reader.Series() {
			names[s] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for s := range names {
		sorted = append(sorted, s)
	}
	sort.Strings(sorted)
	c.stats = CompactStats{Files: len(c.files), SeriesPackers: map[string]string{}}
	results := make([]mergedSeries, len(sorted))
	fanOut(c.e.opt.encodeWorkers(), len(sorted), func(i int) {
		if c.seriesIsFloat(sorted[i]) {
			results[i] = mergeSeries(c, floatCol, sorted[i], choose)
		} else {
			results[i] = mergeSeries(c, intCol, sorted[i], choose)
		}
	})
	w := tsfile.NewWriter(f, c.e.opt.File)
	for i, name := range sorted {
		for _, df := range c.files {
			chunks, err := df.reader.Chunks(name)
			if err != nil {
				continue
			}
			for _, m := range chunks {
				c.stats.BytesBefore += int64(m.EncodedBytes)
			}
		}
		r := &results[i]
		if r.err != nil {
			return fail(r.err)
		}
		if r.count == 0 {
			continue // fully overwritten or tombstoned series vanish
		}
		if err := w.AppendEncoded(name, r.chunk); err != nil {
			return fail(fmt.Errorf("engine: %w", err))
		}
		c.stats.BytesAfter += int64(r.chunk.Meta.EncodedBytes)
		c.recordSeries(name, r.packerName, r.count)
	}
	if err := w.Close(); err != nil {
		return fail(fmt.Errorf("engine: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("engine: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(c.tmpPath)
		return fmt.Errorf("engine: %w", err)
	}
	c.merged = true
	return nil
}

func (c *Compaction) recordSeries(name, packerName string, points int) {
	c.stats.Series++
	c.stats.Points += points
	if packerName != "" {
		c.stats.SeriesPackers[name] = packerName
	}
}

// Stats returns the merge summary (valid after Merge).
func (c *Compaction) Stats() CompactStats { return c.stats }

// Commit atomically installs the merged file: under the engine lock it
// verifies the snapshot files are still live (conflict check against
// anything that changed the file list mid-build), renames the temporary file
// over the run's newest input, splices the file list, garbage-collects dead
// tombstones, and deletes the replaced inputs.
func (c *Compaction) Commit() error {
	if !c.merged {
		return errors.New("engine: commit before merge")
	}
	e := c.e
	e.structMu.Lock()
	defer e.structMu.Unlock()
	defer func() {
		e.compacting = false
		c.done = true
	}()
	if e.closed.Load() {
		os.Remove(c.tmpPath)
		return ErrClosed
	}
	// Conflict check: the snapshot run must still sit, intact and adjacent,
	// in the live file list. Flushes only append and compactions are
	// serialized, so a mismatch means something external (close, reopen)
	// invalidated the snapshot.
	start := -1
	for i, df := range e.files {
		if df == c.files[0] {
			start = i
			break
		}
	}
	if start < 0 || start+len(c.files) > len(e.files) {
		os.Remove(c.tmpPath)
		return ErrCompactConflict
	}
	for k, df := range c.files {
		if e.files[start+k] != df {
			os.Remove(c.tmpPath)
			return ErrCompactConflict
		}
	}
	if err := os.Rename(c.tmpPath, c.outPath); err != nil {
		os.Remove(c.tmpPath)
		return fmt.Errorf("engine: %w", err)
	}
	df, err := e.openDataFile(c.outPath)
	if err != nil {
		// The rename already happened, but the live readers still hold the
		// old inodes and nextSeq is above outSeq, so the engine stays
		// consistent: queries keep serving the pre-compaction files and no
		// later flush can clobber the merged file. The next compaction or
		// reopen converges on the merged state.
		return err
	}
	out := make([]*dataFile, 0, len(e.files)-len(c.files)+1)
	out = append(out, e.files[:start]...)
	out = append(out, df)
	out = append(out, e.files[start+len(c.files):]...)
	e.files = out
	for _, old := range c.files {
		// The replaced readers die with the splice; drop their cached chunks
		// so the cache never serves decoded columns for a dead file ID. The
		// output file got a fresh ID from openDataFile, so its entries can
		// never collide with a replaced input's.
		e.cache.InvalidateFile(old.id)
		old.f.Close()
		if old.path != c.outPath {
			os.Remove(old.path)
		}
	}
	e.gen++ // in-flight scan cursors must rebuild over the spliced file list
	// Tombstone GC: a tombstone only masks files with a smaller sequence;
	// once none remain it can never mask anything again (later flushes get
	// larger sequences) and its physical effect is already in the output.
	minSeq := math.MaxInt
	for _, df := range e.files {
		if df.seq < minSeq {
			minSeq = df.seq
		}
	}
	kept := e.tombs[:0]
	for _, ts := range e.tombs {
		if minSeq < ts.seq {
			kept = append(kept, ts)
		}
	}
	e.tombs = kept
	e.compactions++
	e.compactedFiles += int64(c.stats.Files)
	e.compactedBytesIn += c.stats.BytesBefore
	e.compactedBytesOut += c.stats.BytesAfter
	return nil
}

// Abort releases the snapshot without committing and removes the temporary
// file. Safe to call after a failed Merge or instead of Commit.
func (c *Compaction) Abort() {
	e := c.e
	e.structMu.Lock()
	if !c.done {
		e.compacting = false
		c.done = true
	}
	e.structMu.Unlock()
	os.Remove(c.tmpPath)
}

// Compact merges every data file (and the memtable, via a flush) into a
// single file, dropping overwritten and deleted points. Unlike the
// pre-maintenance implementation it no longer holds the engine lock for the
// whole merge: inserts and queries proceed while it runs, and only the brief
// snapshot and commit phases block.
func (e *Engine) Compact() error {
	_, err := e.CompactWith(nil)
	return err
}

// CompactWith is Compact with an adaptive per-series packer choice (nil
// keeps the engine default) and a stats report. It returns a zero
// CompactStats without error when there is nothing to merge.
func (e *Engine) CompactWith(choose PackerChooser) (CompactStats, error) {
	if err := e.Flush(); err != nil {
		return CompactStats{}, err
	}
	var seqs []int
	e.structMu.RLock()
	for _, df := range e.files {
		seqs = append(seqs, df.seq)
	}
	e.structMu.RUnlock()
	if len(seqs) <= 1 {
		return CompactStats{}, nil
	}
	c, err := e.SnapshotCompaction(seqs)
	if err != nil {
		return CompactStats{}, err
	}
	if err := c.Merge(choose); err != nil {
		c.Abort()
		return CompactStats{}, err
	}
	if err := c.Commit(); err != nil {
		return CompactStats{}, err
	}
	return c.Stats(), nil
}
