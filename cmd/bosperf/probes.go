package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bos/internal/core"
	"bos/internal/tsfile"
)

// Replay probes, run after a traced run's live phase. tsfile and core sit
// below the engine's public API, so instead of spans they are measured by
// replaying the run's own work through their public functions: decoding the
// data files the run left (chunk cache off), and encoding the values the run
// stored, at the chunk size the files hold.

// probeValues caps the values per int series a probe replays.
const probeValues = 8192

func runProbes(st *stack, m []*series, pr *progress) (map[string]float64, error) {
	out := map[string]float64{}
	paths, err := filepath.Glob(filepath.Join(st.dir, "data-*.tsf"))
	if err != nil {
		return nil, err
	}
	var points, chunks int
	var decodeNs time.Duration
	var decoded int
	for _, path := range paths {
		p, c, d, n, err := decodeFile(path)
		if err != nil {
			return nil, err
		}
		points += p
		chunks += c
		decodeNs += d
		decoded += n
	}
	perChunk := float64(points) / float64(max(chunks, 1))
	out["tsfile.points_per_chunk"] = perChunk
	out["tsfile.decode_ns_per_point"] = float64(decodeNs) / float64(max(decoded, 1))

	// Encode the stored values of every int series, chunked as the files
	// chunk them.
	chunkLen := max(int(perChunk+0.5), 1)
	var encNs time.Duration
	var encoded int
	for si, s := range m[:numSeries-floatSeries] {
		n := min(int(pr.acked[si].Load()), probeValues)
		pts := make([]tsfile.Point, n)
		for k := range pts {
			pts[k] = tsfile.Point{T: tOf(k), V: s.int(k)}
		}
		start := time.Now()
		for lo := 0; lo < n; lo += chunkLen {
			if _, err := tsfile.EncodeSeries(tsfile.Options{}, pts[lo:min(lo+chunkLen, n)], ""); err != nil {
				return nil, fmt.Errorf("probe encode %s: %w", s.name, err)
			}
		}
		encNs += time.Since(start)
		encoded += n
	}
	out["tsfile.encode_ns_per_point"] = float64(encNs) / float64(max(encoded, 1))

	// The BOS block codec on the same values, in 1024-value blocks.
	var blocks [][]byte
	var vals []int64
	var bits, outliers int
	encNs, encoded = 0, 0
	for si, s := range m[:numSeries-floatSeries] {
		n := min(int(pr.acked[si].Load()), probeValues)
		for lo := 0; lo < n; lo += 1024 {
			vals = vals[:0]
			for k := lo; k < min(lo+1024, n); k++ {
				vals = append(vals, s.int(k))
			}
			start := time.Now()
			b := core.EncodeBlock(nil, vals, core.SeparationBitWidth)
			encNs += time.Since(start)
			encoded += len(vals)
			bits += 8 * len(b)
			info, _, err := core.InspectBlock(b)
			if err != nil {
				return nil, fmt.Errorf("probe inspect %s: %w", s.name, err)
			}
			outliers += info.NL + info.NU
			blocks = append(blocks, b)
		}
	}
	var sc core.Scratch
	var dst []int64
	start := time.Now()
	for _, b := range blocks {
		dst, _, err = core.DecodeBlockScratch(b, dst[:0], &sc)
		if err != nil {
			return nil, fmt.Errorf("probe decode: %w", err)
		}
	}
	decNs := time.Since(start)
	out["core.encode_ns_per_value"] = float64(encNs) / float64(max(encoded, 1))
	out["core.decode_ns_per_value"] = float64(decNs) / float64(max(encoded, 1))
	out["core.bits_per_value"] = float64(bits) / float64(max(encoded, 1))
	out["core.outlier_frac"] = float64(outliers) / float64(max(encoded, 1))
	return out, nil
}

// decodeFile opens one data file without a cache and decodes every integer
// chunk. It returns the points and chunks the file holds (every kind), and
// the time and points of the integer decode.
func decodeFile(path string) (points, chunks int, took time.Duration, decoded int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	r, err := tsfile.OpenReader(f, info.Size(), tsfile.Options{})
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("probe %s: %w", path, err)
	}
	for _, s := range r.Series() {
		metas, err := r.Chunks(s)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		for ci, m := range metas {
			points += m.Count
			chunks++
			if m.Kind != 0 {
				continue
			}
			start := time.Now()
			if _, _, err := r.ChunkColumns(s, ci); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("probe %s %s chunk %d: %w", path, s, ci, err)
			}
			took += time.Since(start)
			decoded += m.Count
		}
	}
	return points, chunks, took, decoded, nil
}
