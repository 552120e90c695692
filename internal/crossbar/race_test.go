//go:build race

package crossbar

// raceEnabled gates allocation-count assertions: race instrumentation
// allocates on its own schedule, so AllocsPerRun is meaningless under
// -race.
const raceEnabled = true
