//go:build race

package tsfile

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a random share of what is put back, so pooled reuse cannot be
// counted.
const raceEnabled = true
