//go:build race

package litmus

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// random quarter of its Puts.
const raceEnabled = true
