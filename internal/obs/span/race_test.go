//go:build race

package span

// raceEnabled gates allocation-count assertions: race instrumentation
// allocates on its own schedule, so AllocsPerRun is meaningless under
// -race (the stdlib skips its alloc tests the same way).
const raceEnabled = true
