//go:build !race

package dbtoaster

const raceEnabled = false
