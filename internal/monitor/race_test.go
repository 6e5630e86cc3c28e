//go:build race

package monitor

// raceEnabled: the race detector's shadow bookkeeping makes heap
// totals noisy, so byte-count guards skip their allocation slack.
const raceEnabled = true
