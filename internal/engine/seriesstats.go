package engine

import (
	"math"
	"sort"
)

// Per-series statistics: the serving layer's /stats endpoint reports these so
// operators can see which series dominate memory and disk, and which value
// kind (int vs float) each series holds.

// SeriesStat summarizes one series' footprint across the memtable and every
// data file.
type SeriesStat struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"` // "int" or "float"
	MemPoints  int    `json:"mem_points"`
	DiskPoints int    `json:"disk_points"`
	DiskBytes  int64  `json:"disk_bytes"` // encoded chunk payload bytes
	Chunks     int    `json:"chunks"`
	MinT       int64  `json:"min_t"` // meaningful only when the series has points
	MaxT       int64  `json:"max_t"`
}

// SeriesStats reports per-series footprints, sorted by name.
func (e *Engine) SeriesStats() []SeriesStat {
	if e.closed.Load() {
		return nil
	}
	stats := map[string]*SeriesStat{}
	get := func(name string) *SeriesStat {
		s, ok := stats[name]
		if !ok {
			s = &SeriesStat{Name: name, Kind: "int", MinT: math.MaxInt64, MaxT: math.MinInt64}
			stats[name] = s
		}
		return s
	}
	e.structMu.RLock()
	for name, files := range e.holding {
		s := get(name)
		for _, sf := range files {
			for _, c := range sf.chunks {
				s.DiskPoints += c.Count
				s.DiskBytes += int64(c.EncodedBytes)
				s.Chunks++
				if c.Kind != 0 {
					s.Kind = floatCol.kind
				}
				s.MinT, s.MaxT = min(s.MinT, c.MinT), max(s.MaxT, c.MaxT)
			}
		}
	}
	e.structMu.RUnlock()
	// An in-flight flush snapshot still counts as buffered memory.
	e.eachBuffered(func(name, kind string, n int, minT, maxT int64) {
		s := get(name)
		if kind == floatCol.kind {
			s.Kind = kind
		}
		s.MemPoints += n
		s.MinT, s.MaxT = min(s.MinT, minT), max(s.MaxT, maxT)
	})
	out := make([]SeriesStat, 0, len(stats))
	for _, s := range stats {
		if s.MemPoints == 0 && s.DiskPoints == 0 {
			continue
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SeriesKind reports the value kind of a series: "int", "float", or "" when
// the series is unknown, that is when none of its points is buffered, in
// flight or in a data file. The kind comes from the stripe's kind record;
// the files are asked only whether one holds the series.
func (e *Engine) SeriesKind(series string) string {
	if e.closed.Load() {
		return ""
	}
	st := e.stripe(series)
	st.mu.RLock()
	kind := st.kinds[series]
	buffered := st.ints.buffered(series)+st.floats.buffered(series) > 0
	st.mu.RUnlock()
	if kind == "" || buffered {
		return kind
	}
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	if len(e.holding[series]) > 0 {
		return kind
	}
	return ""
}

// kindOf reports the kind record of a series: "" when the engine has never
// seen it.
func (e *Engine) kindOf(series string) string {
	st := e.stripe(series)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.kinds[series]
}
