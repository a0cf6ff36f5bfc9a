package engine

import (
	"errors"

	"bos/internal/pushdown"
)

// Bucket is one downsampled window. It is internal/pushdown's bucket type:
// the compressed-domain executor fills the same shape whether a window was
// answered from footer statistics, partial decode, or a merged scan.
type Bucket = pushdown.Bucket

// ErrBadWindow reports a non-positive downsampling window.
var ErrBadWindow = errors.New("engine: window must be positive")

// Downsample aggregates a series into fixed windows of `window` timestamp
// units over [minT, maxT] — the classic dashboard query. Empty windows are
// omitted. It runs on the compressed-domain executor: chunks that sit alone
// in their time range fold in from footer statistics or inlier-plane partial
// decode, and only the intervals where files, memtable or tombstones overlap
// pay for the classic merged scan.
func (e *Engine) Downsample(series string, minT, maxT, window int64) ([]Bucket, error) {
	if window <= 0 {
		return nil, ErrBadWindow
	}
	return e.WindowAgg(series, minT, maxT, window)
}
