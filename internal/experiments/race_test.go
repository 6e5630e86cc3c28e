//go:build race

package experiments

// raceEnabled: the race detector's shadow bookkeeping moves the heap
// totals, so the shape table skips its allocation columns.
const raceEnabled = true
