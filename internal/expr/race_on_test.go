//go:build race

package expr

// raceEnabled: the race detector instruments allocations, so AllocsPerRun
// assertions are skipped under -race.
const raceEnabled = true
