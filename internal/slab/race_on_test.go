//go:build race

package slab

// raceEnabled: the race detector instruments allocations, so AllocsPerRun
// assertions are skipped under -race.
const raceEnabled = true
