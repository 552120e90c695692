//go:build !race

package span

const raceEnabled = false
