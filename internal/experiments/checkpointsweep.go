package experiments

// The checkpoint-interval sweep: the overhead-vs-rework tradeoff that
// Garba et al. ("Optimally Reducing Checkpointing Effect") optimize.
// Checkpointing too often wastes the machine on checkpoint stalls;
// checkpointing too rarely wastes it on rework after every silent
// machine loss, because only the last committed checkpoint survives.
// Under a nonzero churn rate the total waste is minimized at an
// interior interval — neither the smallest nor the largest swept —
// and with no churn the overhead term is the whole bill, so waste
// falls monotonically as the interval grows.  Every cell is also a
// determinism gate: serial, rerun, and parallel runs of the same
// churned shape must byte-compare equal.

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/pool"
)

// CheckpointSweepRow is one (churn rate, checkpoint interval) cell,
// the unit of checkpoint_sweep.json.
type CheckpointSweepRow struct {
	// MeanUpMinutes is the average machine uptime between silent
	// crashes; 0 means a static pool.
	MeanUpMinutes float64 `json:"mean_up_minutes"`
	// IntervalMinutes is the checkpoint interval under test.
	IntervalMinutes float64 `json:"interval_minutes"`
	Jobs            int     `json:"jobs"`
	Completed       int     `json:"completed"`
	// LostContacts counts attempts whose machine silently died under
	// them (the rework source); Requeues counts every second chance.
	LostContacts int `json:"lost_contacts"`
	Requeues     int `json:"requeues"`
	// ConsumedMinutes is total machine occupancy across attempts;
	// UsefulMinutes is what the completed programs actually needed.
	// WasteMinutes is their difference: checkpoint stalls, rework
	// past the last committed checkpoint, startup, and the dead time
	// until a silent loss is discovered.
	ConsumedMinutes float64 `json:"consumed_minutes"`
	UsefulMinutes   float64 `json:"useful_minutes"`
	WasteMinutes    float64 `json:"waste_minutes"`
	// MeanTurnaroundMinutes is the average queue residency of
	// completed jobs.
	MeanTurnaroundMinutes float64 `json:"mean_turnaround_minutes"`
	// Dispositions records the three-arm byte comparison.
	Dispositions string `json:"dispositions"`
}

// CheckpointSweepJSON is the sweep's rows as checkpoint_sweep.json
// spells them: indented, with a final newline.
func CheckpointSweepJSON(rows []CheckpointSweepRow) ([]byte, error) {
	data, err := json.MarshalIndent(rows, "", "  ")
	return append(data, '\n'), err
}

// checkpointSweepIntervals are the swept checkpoint intervals.
func checkpointSweepIntervals() []time.Duration {
	return []time.Duration{
		2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
		20 * time.Minute, 40 * time.Minute,
	}
}

// checkpointSweepChurn are the swept mean-uptime settings; 0 is the
// static-pool baseline.
func checkpointSweepChurn() []time.Duration {
	return []time.Duration{0, 3 * time.Hour, 2 * time.Hour}
}

// runCheckpointCell drives one (churn, interval) cell once and
// returns the pool and its disposition trace.
func runCheckpointCell(seed int64, meanUp, interval time.Duration, workers int) (*pool.Pool, string) {
	const (
		jobs     = 16
		machines = 8
	)
	params := daemon.DefaultParams()
	params.CheckpointInterval = interval
	params.CheckpointOverhead = 30 * time.Second
	params.MaxAttempts = 100
	// The 40-minute jobs below stretch to at most ~51 minutes under
	// the densest checkpoint schedule, so an hour of silence is
	// unambiguous: the result timeout never fires under a live
	// attempt, and fires within the downtime of every dead one.
	params.ResultTimeout = time.Hour
	cfg := pool.Config{
		Seed:     seed,
		Params:   params,
		Machines: pool.UniformMachines(machines, 2048),
		Workers:  workers,
	}
	if meanUp > 0 {
		// Crash-mode churn: departures are silent, so only the last
		// periodic checkpoint survives — the polite vacate path would
		// ship a final checkpoint and hide the interval entirely.  The
		// attempt's starter dies with the machine, so the shadow's
		// result timeout discovers every loss; the downtime exceeds
		// that timeout, so the machine is still down when it fires.
		cfg.Churn = &pool.ChurnConfig{
			Horizon:  36 * time.Hour,
			MeanUp:   meanUp,
			Downtime: 2 * time.Hour,
			Crash:    true,
		}
	}
	p := pool.New(cfg)
	p.SubmitStandard(jobs, pool.UniformCompute(40*time.Minute))
	p.Run(14 * 24 * time.Hour)
	return p, dispositions(p.Schedds)
}

// CheckpointSweep measures total waste over checkpoint intervals ×
// churn rates and returns the rows plus a report.  It fails unless
// every job completes in every cell, every cell byte-compares equal
// across serial, rerun, and parallel runs, and the Garba tradeoff
// shows: for at least one nonzero churn rate the waste-minimizing
// interval is interior.
func CheckpointSweep(seed int64) ([]CheckpointSweepRow, *Report, error) {
	rep := &Report{
		ID:    "checkpoint-sweep",
		Title: "checkpoint interval vs machine churn: the overhead-vs-rework curve",
		Headers: []string{"mean up", "interval", "completed", "lost", "requeues",
			"consumed", "useful", "waste", "turnaround", "dispositions"},
	}
	const (
		smokeWorkers = 4
		jobLength    = 40 * time.Minute
	)
	var rows []CheckpointSweepRow
	var firstErr error
	interiorAt := ""
	for _, meanUp := range checkpointSweepChurn() {
		bestWaste, bestIdx := time.Duration(0), -1
		intervals := checkpointSweepIntervals()
		for idx, interval := range intervals {
			p, serial := runCheckpointCell(seed, meanUp, interval, 0)
			_, rerun := runCheckpointCell(seed, meanUp, interval, 0)
			_, par := runCheckpointCell(seed, meanUp, interval, smokeWorkers)
			verdict := "equal"
			if rerun != serial || par != serial {
				verdict = "DIVERGED"
				if firstErr == nil {
					firstErr = fmt.Errorf("checkpoint-sweep: meanUp=%s interval=%s dispositions diverge across arms",
						meanUp, interval)
				}
			}
			m := p.Metrics()
			if m.Completed != m.Jobs && firstErr == nil {
				firstErr = fmt.Errorf("checkpoint-sweep: meanUp=%s interval=%s: %d of %d jobs completed",
					meanUp, interval, m.Completed, m.Jobs)
			}
			var consumed time.Duration
			for _, j := range p.Schedd.Jobs() {
				for _, att := range j.Attempts {
					if att.FetchError == nil && att.End > att.Start {
						consumed += att.End.Sub(att.Start)
					}
				}
			}
			useful := time.Duration(m.Completed) * jobLength
			waste := consumed - useful
			if bestIdx < 0 || waste < bestWaste {
				bestWaste, bestIdx = waste, idx
			}
			row := CheckpointSweepRow{
				MeanUpMinutes:         meanUp.Minutes(),
				IntervalMinutes:       interval.Minutes(),
				Jobs:                  m.Jobs,
				Completed:             m.Completed,
				LostContacts:          m.LostContacts,
				Requeues:              m.Requeues,
				ConsumedMinutes:       consumed.Minutes(),
				UsefulMinutes:         useful.Minutes(),
				WasteMinutes:          waste.Minutes(),
				MeanTurnaroundMinutes: m.MeanTurnaround().Minutes(),
				Dispositions:          verdict,
			}
			rows = append(rows, row)
			up := "static"
			if meanUp > 0 {
				up = meanUp.String()
			}
			rep.AddRow(up, interval.String(),
				fmt.Sprintf("%d/%d", m.Completed, m.Jobs),
				fmt.Sprint(m.LostContacts), fmt.Sprint(m.Requeues),
				consumed.Truncate(time.Minute).String(), useful.String(),
				waste.Truncate(time.Minute).String(),
				m.MeanTurnaround().Truncate(time.Minute).String(), verdict)
		}
		if meanUp > 0 && bestIdx > 0 && bestIdx < len(intervals)-1 {
			interiorAt = fmt.Sprintf("mean up %s: waste minimized at the interior interval %s",
				meanUp, intervals[bestIdx])
			rep.AddNote("%s", interiorAt)
		}
	}
	if firstErr == nil && interiorAt == "" {
		firstErr = fmt.Errorf("checkpoint-sweep: no nonzero churn rate minimized waste at an interior interval")
	}
	if firstErr == nil {
		rep.AddNote("every cell byte-compared dispositions across serial, rerun, and parallel arms: equal")
		rep.AddNote("with no churn the checkpoint stall is the whole bill, so waste falls as the interval grows;")
		rep.AddNote("under churn the rework past the last committed checkpoint pulls the optimum inward (Garba et al.)")
	}
	return rows, rep, firstErr
}

// dispositions renders every job's full event log at every submit
// point, in a fixed order — the byte-exact record of what the pool (or
// federation) decided and when.
func dispositions(schedds []*daemon.Schedd) string {
	var sb strings.Builder
	for _, s := range schedds {
		for _, j := range s.Jobs() {
			fmt.Fprintf(&sb, "== %s job %d %s\n", s.Name(), j.ID, j.State)
			sb.WriteString(j.EventLog())
		}
	}
	return sb.String()
}
