// Package maintain is the background storage-maintenance subsystem: it owns
// compaction policy and execution for an engine, separate from the engine's
// mechanism. A scheduler goroutine wakes at jittered intervals, picks a
// contiguous run of similar-sized data files (tiered, size-based — the LSM
// discipline), and drives the engine's snapshot/merge/commit cycle under a
// byte-budget rate limit so maintenance IO cannot starve foreground traffic.
//
// During each merge the subsystem repacks every series adaptively: the
// engine encodes the series' merged data with every candidate packing
// operator (internal/packers — the BOS family, plain bit-packing and the PFoR
// family) and keeps the smallest chunk, exactly the storage-cost
// minimization the BOS cost model (paper Definition 5) performs per block,
// lifted to the per-series compaction decision. Nothing is measured on the
// side: the kept chunk is the one written. The winning layout is recorded
// per chunk in the file footer, so one merged file mixes operators freely.
package maintain

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bos/internal/engine"
	"bos/internal/packers"
)

// Config tunes the maintainer. The zero value is a valid configuration.
type Config struct {
	// Interval is the base scheduler period (default 30s).
	Interval time.Duration
	// BytesPerSec is the maintenance rate limit: a token bucket of input
	// bytes refilled at this rate gates each run (0 = unlimited).
	BytesPerSec int64
	// Adaptive turns on per-series packer selection during merges.
	Adaptive bool
}

// The scheduling and run-selection policy.
const (
	// jitter is the fraction of Interval randomized around each wake-up
	// (±20%) so replicas don't compact in lockstep.
	jitter = 0.2
	// minFiles is the smallest run worth merging.
	minFiles = 2
	// maxFiles caps the files merged per compaction.
	maxFiles = 8
	// tierRatio bounds the size spread within one run: the largest file may
	// be at most tierRatio times the smallest. Keeping merges within a size
	// tier bounds write amplification.
	tierRatio = 4
)

// Stats is a snapshot of the maintainer's lifetime counters.
type Stats struct {
	Ticks       int64  `json:"ticks"`        // scheduler wake-ups
	Compactions int64  `json:"compactions"`  // committed maintenance runs
	Files       int64  `json:"files"`        // input files merged away
	BytesBefore int64  `json:"bytes_before"` // encoded bytes entering merges
	BytesAfter  int64  `json:"bytes_after"`  // encoded bytes after repacking
	RateLimited int64  `json:"rate_limited"` // runs deferred by the byte budget
	LastError   string `json:"last_error,omitempty"`
	// SeriesPackers records the most recent adaptive packer choice per
	// series ("" never appears; series on the default packer are absent).
	SeriesPackers map[string]string `json:"series_packers,omitempty"`
}

// Maintainer runs background maintenance for one engine.
type Maintainer struct {
	eng *engine.Engine
	cfg Config

	mu         sync.Mutex
	stats      Stats
	budget     float64 // token bucket, in input bytes
	lastRefill time.Time
	rng        *rand.Rand
	started    bool

	stop chan struct{}
	done chan struct{}
}

// New builds a Maintainer over eng. Call Start to launch the scheduler;
// RunOnce works without it.
func New(eng *engine.Engine, cfg Config) *Maintainer {
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	return &Maintainer{
		eng:        eng,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
		lastRefill: time.Now(),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Start launches the scheduler goroutine. It may be called once.
func (m *Maintainer) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go m.loop()
}

// Stop shuts the scheduler down and waits for any in-flight run to finish.
// Safe to call before Start and more than once.
func (m *Maintainer) Stop() {
	m.mu.Lock()
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	started := m.started
	m.mu.Unlock()
	if started {
		<-m.done
	}
}

func (m *Maintainer) loop() {
	defer close(m.done)
	timer := time.NewTimer(m.nextInterval())
	defer timer.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-timer.C:
		}
		m.tick()
		timer.Reset(m.nextInterval())
	}
}

// nextInterval jitters the base period by ±jitter.
func (m *Maintainer) nextInterval() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	spread := 1 + jitter*(2*m.rng.Float64()-1)
	return time.Duration(float64(m.cfg.Interval) * spread)
}

// tick is one scheduler wake-up: refill the byte budget, consult the policy,
// and run a compaction if one is due and affordable.
func (m *Maintainer) tick() {
	m.mu.Lock()
	m.stats.Ticks++
	now := time.Now()
	if m.cfg.BytesPerSec > 0 {
		m.budget += float64(m.cfg.BytesPerSec) * now.Sub(m.lastRefill).Seconds()
		// Cap the bucket so long idle stretches don't bank an unbounded
		// burst (one minute of allowance).
		if lim := float64(m.cfg.BytesPerSec) * 60; m.budget > lim {
			m.budget = lim
		}
	}
	m.lastRefill = now
	m.mu.Unlock()

	_, _, err := m.runOnce(true)
	if err != nil && !errors.Is(err, engine.ErrCompacting) && !errors.Is(err, engine.ErrClosed) {
		m.mu.Lock()
		m.stats.LastError = err.Error()
		m.mu.Unlock()
	}
}

// RunOnce applies the policy and, if a run is due, executes one compaction
// immediately, bypassing the scheduler and the rate limit. It reports whether
// a compaction ran. This is the admin-endpoint and test entry point.
func (m *Maintainer) RunOnce() (engine.CompactStats, bool, error) {
	return m.runOnce(false)
}

func (m *Maintainer) runOnce(rateLimited bool) (engine.CompactStats, bool, error) {
	run, runBytes := pickRun(m.eng.FileInfos())
	if len(run) == 0 {
		return engine.CompactStats{}, false, nil
	}
	if rateLimited && m.cfg.BytesPerSec > 0 {
		m.mu.Lock()
		if float64(runBytes) > m.budget {
			m.stats.RateLimited++
			m.mu.Unlock()
			return engine.CompactStats{}, false, nil
		}
		m.budget -= float64(runBytes)
		m.mu.Unlock()
	}
	c, err := m.eng.SnapshotCompaction(run)
	if err != nil {
		return engine.CompactStats{}, false, err
	}
	if err := c.Merge(m.packerNames()); err != nil {
		c.Abort()
		return engine.CompactStats{}, false, err
	}
	if err := c.Commit(); err != nil {
		return engine.CompactStats{}, false, err
	}
	st := c.Stats()
	m.record(st)
	return st, true, nil
}

// record folds one committed compaction into the lifetime counters.
func (m *Maintainer) record(st engine.CompactStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Compactions++
	m.stats.Files += int64(st.Files)
	m.stats.BytesBefore += st.BytesBefore
	m.stats.BytesAfter += st.BytesAfter
	if len(st.SeriesPackers) > 0 {
		if m.stats.SeriesPackers == nil {
			m.stats.SeriesPackers = map[string]string{}
		}
		for s, p := range st.SeriesPackers {
			m.stats.SeriesPackers[s] = p
		}
	}
}

// CompactAll merges every data file in one full compaction, repacking
// adaptively when configured. It bypasses policy and rate limit — this is
// the explicit admin action behind the server's /compact endpoint.
func (m *Maintainer) CompactAll() (engine.CompactStats, error) {
	st, err := m.eng.CompactWith(m.packerNames())
	if err != nil {
		return st, err
	}
	if st.Files > 0 {
		m.record(st)
	}
	return st, nil
}

// Stats returns a copy of the counters.
func (m *Maintainer) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.stats
	if m.stats.SeriesPackers != nil {
		out.SeriesPackers = make(map[string]string, len(m.stats.SeriesPackers))
		for s, p := range m.stats.SeriesPackers {
			out.SeriesPackers[s] = p
		}
	}
	return out
}

// pickRun is the tiered size-based policy: among all contiguous windows of
// [minFiles, maxFiles] files whose size spread stays within tierRatio, pick
// the one with the most files, breaking ties toward fewer total bytes
// (cheapest merge first — small fresh files accumulate fastest and benefit
// most). Contiguity in file-list order is required by the engine so the
// merged output can splice in without reordering freshness.
func pickRun(infos []engine.FileInfo) (seqs []int, totalBytes int64) {
	bestLen, bestBytes := 0, int64(math.MaxInt64)
	for i := 0; i < len(infos); i++ {
		minB, maxB := int64(math.MaxInt64), int64(0)
		var sum int64
		for j := i; j < len(infos) && j-i < maxFiles; j++ {
			b := infos[j].Bytes
			if b < minB {
				minB = b
			}
			if b > maxB {
				maxB = b
			}
			sum += b
			if minB > 0 && maxB > tierRatio*minB {
				break // window left the size tier; longer extensions only widen it
			}
			n := j - i + 1
			if n < minFiles {
				continue
			}
			if n > bestLen || (n == bestLen && sum < bestBytes) {
				bestLen, bestBytes = n, sum
				seqs = seqs[:0]
				for k := i; k <= j; k++ {
					seqs = append(seqs, infos[k].Seq)
				}
				totalBytes = sum
			}
		}
	}
	return seqs, totalBytes
}

// packerNames lists the packers a merge tries per series: the whole
// registry under adaptive repacking, none (the file default) otherwise.
func (m *Maintainer) packerNames() []string {
	if !m.cfg.Adaptive {
		return nil
	}
	return packers.Names()
}

// String renders a short human-readable summary (used by cmd logging).
func (s Stats) String() string {
	return fmt.Sprintf("ticks=%d compactions=%d files=%d bytes %d->%d rate_limited=%d",
		s.Ticks, s.Compactions, s.Files, s.BytesBefore, s.BytesAfter, s.RateLimited)
}
