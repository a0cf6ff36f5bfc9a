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
	for _, df := range e.files {
		for _, name := range df.reader.Series() {
			chunks, err := df.reader.Chunks(name)
			if err != nil {
				continue
			}
			s := get(name)
			for _, c := range chunks {
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
// the series is unknown.
func (e *Engine) SeriesKind(series string) string {
	if e.closed.Load() {
		return ""
	}
	st := e.stripe(series)
	st.mu.RLock()
	floats, ints := st.floats.buffered(series), st.ints.buffered(series)
	st.mu.RUnlock()
	if floats > 0 {
		return floatCol.kind
	}
	if ints > 0 {
		return intCol.kind
	}
	kind := ""
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	for _, df := range e.files {
		switch fileKind(df.reader, series) {
		case floatCol.kind:
			return floatCol.kind
		case intCol.kind:
			kind = intCol.kind
		}
	}
	return kind
}
