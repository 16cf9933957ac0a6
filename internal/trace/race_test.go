//go:build race

package trace

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
