//go:build !race

package litmus

const raceEnabled = false
