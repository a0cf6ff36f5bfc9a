// Package engine implements a small IoT time-series storage engine in the
// mold of Apache IoTDB, the system the paper deploys BOS into: inserts
// accumulate in a per-series memtable, flush into immutable TsFile-style
// block files (internal/tsfile) with BOS as the storage operator, and
// queries merge the memtable with every on-disk file, newest data winning on
// timestamp collisions. Compaction folds all files into one.
//
// The engine exists to exercise BOS end-to-end in its production role — the
// write path (plan + pack on flush), the read path (footer-pruned chunk
// scans, decoded-chunk cache, stateful scan cursors) and the background path
// (compaction re-encodes everything) all run through the packing operator
// under test.
//
// Locking. The engine has no single global lock. State is split four ways:
//
//   - flushMu serializes the flush pipeline (flush.go): one snapshot in
//     flight at a time, and threshold-crossing writers bail out on TryLock
//     instead of queueing.
//   - structMu guards the structural state: the data-file list, sequence
//     numbers, tombstones, the scan generation counter and the maintenance
//     counters. Queries take it shared; snapshot, commit, compaction commit
//     and range deletes take it exclusive, briefly.
//   - The memtable is sharded into stripeCount stripes, each with its own
//     RWMutex; a series maps to one stripe by hash. Writers on different
//     stripes do not contend with each other or with queries on other
//     stripes. The snapshot swap (and close) locks every stripe, which
//     makes it a global barrier for buffered writes — but only for the
//     O(stripes) pointer swaps, never for the encoding.
//   - walMu guards the shared write-ahead log's structure. The log bytes
//     themselves are written by one group-commit leader at a time
//     (groupcommit.go) with walMu released and the walBusy token held, so
//     no lock is held across WAL I/O; walCond (paired with walMu) signals
//     commit completion and walBusy hand-offs.
//
// The lock hierarchy is formal and machine-checked: cmd/bosvet's lockorder
// analyzer (configured in internal/analysis/config.go, which mirrors this
// table — the two must change together) verifies every function in this
// package against it.
//
//	level 0  Engine.flushMu    the flush pipeline (one snapshot in flight)
//	level 1  Engine.structMu   structural state (file list, tombstones,
//	                           sequence numbers, scan generation)
//	level 2  memStripe.mu      memtable stripes; the all-stripe barrier is
//	                           Engine.lockStripes / Engine.unlockStripes,
//	                           which lock in ascending stripe index —
//	                           never take two stripes directly
//	level 3  Engine.walMu      the shared write-ahead log's structure
//
// Locks are acquired in strictly increasing level order. A path may skip
// levels (e.g. take walMu without structMu) but must never acquire a lower
// or equal level while holding a higher one, and must release before any
// return on paths where the acquisition is not deferred.
package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"bos/internal/chunkcache"
	"bos/internal/pushdown"
	"bos/internal/tsfile"
)

// Options configures an Engine.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// FlushThreshold is the total buffered point count that triggers an
	// automatic flush (default 16384).
	FlushThreshold int
	// File configures the underlying block files (packer, block size).
	File tsfile.Options
	// DisableWAL turns off the write-ahead log; inserts buffered in the
	// memtable are then lost on a crash before flush.
	DisableWAL bool
	// SyncWAL fsyncs the log on every insert batch (durable against
	// machine crashes, not just process crashes). Off by default.
	SyncWAL bool
	// CacheBytes bounds the decoded-chunk cache (0 = the 64 MiB default,
	// negative = cache disabled). The cache keeps bit-unpacked chunk columns
	// resident so repeated scans and paged reads decode each chunk once.
	CacheBytes int64
	// EncodeWorkers bounds the goroutines that encode chunks during flush
	// and compaction (0 = GOMAXPROCS, 1 = serial). Output bytes are
	// identical at every setting.
	EncodeWorkers int
}

func (o Options) flushThreshold() int {
	if o.FlushThreshold <= 0 {
		return 16384
	}
	return o.FlushThreshold
}

func (o Options) cacheBytes() int64 {
	if o.CacheBytes == 0 {
		return 64 << 20
	}
	if o.CacheBytes < 0 {
		return 0
	}
	return o.CacheBytes
}

func (o Options) encodeWorkers() int {
	if o.EncodeWorkers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.EncodeWorkers
}

// stripeCount is the number of memtable lock stripes. Power of two so the
// series hash maps with a mask; 16 stripes keep contention negligible well
// past the writer counts the serving layer runs.
const stripeCount = 16

// memStripe is one lock-striped shard of the memtable.
type memStripe struct {
	mu     sync.RWMutex
	ints   memBuf[int64]
	floats memBuf[float64]
	// kinds records the value kind of every series the engine has seen
	// whose name hashes here ("int" or "float").
	kinds map[string]string
}

// stripeFor hashes a series name onto its stripe (FNV-1a).
func stripeFor(series string) int {
	h := uint32(2166136261)
	for i := 0; i < len(series); i++ {
		h ^= uint32(series[i])
		h *= 16777619
	}
	return int(h & (stripeCount - 1))
}

// Engine is a single-node, single-process storage engine. All methods are
// safe for concurrent use.
type Engine struct {
	opt     Options
	stripes [stripeCount]memStripe
	memPts  atomic.Int64 // total buffered points across stripes, both kinds
	closed  atomic.Bool  // set under structMu + all stripe locks

	flushMu sync.Mutex // serializes the flush pipeline (flush.go)

	structMu   sync.RWMutex
	files      []*dataFile // ascending sequence = ascending freshness
	holding    fileIndex   // per series, the files that hold it (setFiles)
	nextSeq    int
	nextFileID uint64     // chunk-cache identity; never reused, unlike seq
	gen        uint64     // bumped on any file-list or tombstone change
	tombs      tombstones // pending range deletes, applied at query/compaction
	flushSeq   int        // sequence of the most recent snapshot

	walMu    sync.Mutex
	walCond  *sync.Cond // paired with walMu (group commit, groupcommit.go)
	walGroup *walGroup  // the forming group (walMu)
	walBusy  bool       // a leader is writing with walMu released (walMu)
	log      *wal       // nil when Options.DisableWAL

	// Lifetime group-commit counters, reported in Stats.
	walGroups  atomic.Int64 // committed groups (= fsyncs under SyncWAL)
	walRecords atomic.Int64 // records across all groups

	cache *chunkcache.Cache // nil when disabled

	// Lifetime pushdown tier counters (internal/pushdown), reported in Stats:
	// how chunks routed through the compressed-domain executor were answered.
	ptiers pushdown.Tiers

	compacting bool // one snapshot/merge/commit cycle at a time
	// Lifetime maintenance counters, reported in Stats.
	compactions       int64
	compactedFiles    int64
	compactedBytesIn  int64
	compactedBytesOut int64
}

func (e *Engine) stripe(series string) *memStripe {
	return &e.stripes[stripeFor(series)]
}

// lockStripes acquires every stripe write lock in index order (the global
// memtable barrier used by flush and close).
func (e *Engine) lockStripes() {
	for i := range e.stripes {
		e.stripes[i].mu.Lock()
	}
}

func (e *Engine) unlockStripes() {
	for i := range e.stripes {
		e.stripes[i].mu.Unlock()
	}
}

// dataFile is one immutable on-disk block file.
type dataFile struct {
	path   string
	seq    int
	id     uint64 // chunk-cache identity
	f      *os.File
	reader *tsfile.Reader
}

// seriesFile is one data file that holds a series, with the series' chunk
// metadata from the file's footer.
type seriesFile struct {
	df     *dataFile
	chunks []tsfile.ChunkMeta
}

// fileIndex maps each series to the files that hold a chunk of it, in the
// order of the file list it was built from (oldest first), so a read visits
// only those files and takes their chunk metadata without a lookup per
// file.
type fileIndex map[string][]seriesFile

// indexFiles builds the fileIndex of files.
func indexFiles(files []*dataFile) fileIndex {
	idx := fileIndex{}
	for _, df := range files {
		idx.add(df)
	}
	return idx
}

// add indexes df, which is newer than every file indexed so far.
func (idx fileIndex) add(df *dataFile) {
	for _, name := range df.reader.Series() {
		if chunks, err := df.reader.Chunks(name); err == nil && len(chunks) > 0 {
			idx[name] = append(idx[name], seriesFile{df: df, chunks: chunks})
		}
	}
}

// setFiles installs the live file list and rebuilds the per-series index
// over it; a flush, which only appends a file, adds it to the index in
// place instead. Caller holds structMu exclusively, or the engine is not
// shared yet.
func (e *Engine) setFiles(files []*dataFile) {
	e.files = files
	e.holding = indexFiles(files)
}

// ErrClosed reports use after Close.
var ErrClosed = errors.New("engine: closed")

// Open opens (or creates) an engine over dir, loading any existing data
// files.
func Open(opt Options) (*Engine, error) {
	if opt.Dir == "" {
		return nil, errors.New("engine: Options.Dir is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e := &Engine{opt: opt, cache: chunkcache.New(opt.cacheBytes())}
	e.walCond = sync.NewCond(&e.walMu)
	for i := range e.stripes {
		st := &e.stripes[i]
		st.ints.mem = map[string][]tsfile.Point{}
		st.floats.mem = map[string][]tsfile.FloatPoint{}
		st.kinds = map[string]string{}
	}
	// Startup hygiene: a crash between writing a temporary file (flush or
	// compaction merge) and its atomic rename leaves an orphaned *.tmp that
	// no reader references — delete them before loading the real files.
	if orphans, err := filepath.Glob(filepath.Join(opt.Dir, "data-*.tsf*.tmp")); err == nil {
		for _, tmp := range orphans {
			os.Remove(tmp)
		}
	}
	entries, err := filepath.Glob(filepath.Join(opt.Dir, "data-*.tsf"))
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	sort.Strings(entries)
	for _, path := range entries {
		df, err := e.openDataFile(path)
		if err != nil {
			e.closeFiles()
			return nil, err
		}
		e.files = append(e.files, df)
		if df.seq >= e.nextSeq {
			e.nextSeq = df.seq + 1
		}
		for _, name := range df.reader.Series() {
			kind := intCol.kind
			if _, float := df.reader.ValueKind(name); float {
				kind = floatCol.kind
			}
			e.stripe(name).kinds[name] = kind
		}
	}
	e.setFiles(e.files)
	if !opt.DisableWAL {
		// A sealed segment can outlive a failed flush (rollback keeps it on
		// disk, covering the restored points). Its sequence is burned:
		// rotating onto the same name again would clobber live records, so
		// nextSeq must move past every surviving segment too.
		segs, err := filepath.Glob(filepath.Join(opt.Dir, "wal-*.log"))
		if err != nil {
			e.closeFiles()
			return nil, fmt.Errorf("engine: %w", err)
		}
		for _, s := range segs {
			var seq int
			if _, err := fmt.Sscanf(filepath.Base(s), "wal-%06d.log", &seq); err == nil && seq >= e.nextSeq {
				e.nextSeq = seq + 1
			}
		}
		// Recover inserts and deletes that never made it into data files.
		err = replayWAL(opt.Dir,
			func(series string, pts []tsfile.Point) { replay(e, intCol, series, pts) },
			func(ts tombstone, carried bool) { replayTombstone(e, ts, carried) },
			func(series string, pts []tsfile.FloatPoint) { replay(e, floatCol, series, pts) })
		if err != nil {
			e.closeFiles()
			return nil, err
		}
		if e.log, err = openWAL(opt.Dir); err != nil {
			e.closeFiles()
			return nil, err
		}
	}
	return e, nil
}

// openDataFile opens one data file and wires it into the chunk cache under a
// fresh identity. Called with structMu held exclusively (or before the
// engine is shared).
func (e *Engine) openDataFile(path string) (*dataFile, error) {
	if testOpenDataFileErr != nil {
		if err := testOpenDataFileErr(path); err != nil {
			return nil, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("engine: %w", err)
	}
	r, err := tsfile.OpenReader(f, info.Size(), e.opt.File)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("engine: %s: %w", path, err)
	}
	var seq int
	if _, err := fmt.Sscanf(filepath.Base(path), "data-%06d.tsf", &seq); err != nil {
		// Unconventionally named files still open; they sort before any
		// numbered file (seq 0) instead of being silently misordered.
		seq = 0
	}
	e.nextFileID++
	df := &dataFile{path: path, seq: seq, id: e.nextFileID, f: f, reader: r}
	r.SetCache(e.cache, df.id)
	return df, nil
}

// Insert adds one point. Out-of-order and duplicate timestamps are accepted;
// the last write for a timestamp wins.
func (e *Engine) Insert(series string, t, v int64) error {
	return e.InsertBatch(series, []tsfile.Point{{T: t, V: v}})
}

// InsertBatch adds many points to one integer series; writers on different
// series proceed in parallel. If the WAL write fails the points stay
// buffered (and flushable) but the error is returned. A batch into a float
// series fails with ErrSeriesKind.
func (e *Engine) InsertBatch(series string, pts []tsfile.Point) error {
	return insert(e, intCol, series, pts)
}

// Query returns the points of a series in [minT, maxT], in time order,
// merging every data file and the memtable with newest-wins semantics.
func (e *Engine) Query(series string, minT, maxT int64) ([]tsfile.Point, error) {
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	return query(e, intCol, series, minT, maxT)
}

// Series lists every known series name, sorted.
func (e *Engine) Series() []string {
	set := e.seriesSet()
	names := make([]string, 0, len(set))
	for s := range set {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}

// seriesSet collects every series with points on disk, buffered or in
// flight.
func (e *Engine) seriesSet() map[string]bool {
	e.structMu.RLock()
	set := map[string]bool{}
	for s := range e.holding {
		set[s] = true
	}
	e.structMu.RUnlock()
	e.eachBuffered(func(name, _ string, _ int, _, _ int64) { set[name] = true })
	return set
}

// Stats summarizes the engine's footprint.
type Stats struct {
	Files       int
	MemPoints   int
	DiskPoints  int
	DiskBytes   int64
	SeriesCount int
	// Lifetime compaction counters since Open.
	Compactions       int64
	CompactedFiles    int64
	CompactedBytesIn  int64 // encoded chunk bytes entering committed compactions
	CompactedBytesOut int64 // encoded chunk bytes after repacking
	// Lifetime WAL group-commit counters since Open: WALRecords/WALGroups
	// is the achieved batching factor (fsyncs amortized per group under
	// SyncWAL).
	WALGroups  int64
	WALRecords int64
	// Cache reports the decoded-chunk cache (zero when disabled).
	Cache chunkcache.Stats
	// Pushdown reports the compressed-domain query executor's tier hits:
	// chunks answered from footer stats alone, from partial (inlier-plane)
	// decode, and from full decode.
	Pushdown pushdown.Snapshot
}

// Stats reports the current footprint.
func (e *Engine) Stats() Stats {
	e.structMu.RLock()
	s := Stats{
		Files:             len(e.files),
		MemPoints:         int(e.memPts.Load()),
		Compactions:       e.compactions,
		CompactedFiles:    e.compactedFiles,
		CompactedBytesIn:  e.compactedBytesIn,
		CompactedBytesOut: e.compactedBytesOut,
		WALGroups:         e.walGroups.Load(),
		WALRecords:        e.walRecords.Load(),
		Pushdown:          e.ptiers.Snapshot(),
	}
	for _, df := range e.files {
		if info, err := df.f.Stat(); err == nil {
			s.DiskBytes += info.Size()
		}
	}
	for _, files := range e.holding {
		for _, sf := range files {
			for _, c := range sf.chunks {
				s.DiskPoints += c.Count
			}
		}
	}
	e.structMu.RUnlock()
	s.SeriesCount = len(e.seriesSet())
	s.Cache = e.cache.Stats()
	return s
}

// eachBuffered calls fn for every series with live or in-flight points,
// kind by kind, under each stripe's read lock.
func (e *Engine) eachBuffered(fn func(name, kind string, n int, minT, maxT int64)) {
	for i := range e.stripes {
		st := &e.stripes[i]
		st.mu.RLock()
		eachBuffered(&st.ints, intCol.kind, fn)
		eachBuffered(&st.floats, floatCol.kind, fn)
		st.mu.RUnlock()
	}
}

func (e *Engine) closeFiles() {
	for _, df := range e.files {
		df.f.Close()
		e.cache.InvalidateFile(df.id)
	}
	e.setFiles(nil)
}

// Close flushes and releases the engine.
func (e *Engine) Close() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.structMu.Lock()
	if e.closed.Load() {
		e.structMu.Unlock()
		return nil
	}
	// closed flips first, while every stripe is held, so no insert can get
	// past its check afterwards — the final flush below then sees a frozen
	// memtable, and no new WAL group can form under the closing log.
	e.lockStripes()
	e.closed.Store(true)
	e.unlockStripes()
	e.structMu.Unlock()
	if err := e.flushSnapshot(true); err != nil {
		return err
	}
	e.structMu.Lock()
	defer e.structMu.Unlock()
	e.gen++
	e.closeFiles()
	if e.log != nil {
		e.walMu.Lock()
		// A group enqueued before closed flipped may still be in flight
		// (its leader commits it without structMu); wait it out so the
		// file handle is not yanked from under the leader.
		for e.walBusy || e.walGroup != nil {
			e.walCond.Wait()
		}
		err := e.log.close()
		e.log = nil
		e.walMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
