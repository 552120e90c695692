//go:build !race

package crossbar

const raceEnabled = false
