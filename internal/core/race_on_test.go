//go:build race

package core

// raceEnabled: the race detector instruments allocations and drops pooled
// items, so AllocsPerRun assertions are skipped under -race.
const raceEnabled = true
