//go:build race

package packers

// raceEnabled reports a build with the race detector, whose instrumentation
// makes allocation counts unreliable.
const raceEnabled = true
