package pool

import (
	"errors"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// TestGoodputSplitFollowsTheTrueError: the summary sorts an attempt
// into goodput or badput by Result.ErrScope, which names the scope of
// the attempt's true error without building the error.  For every
// status and every scope a result can carry — including an escape with
// no usable scope — that must be the scope of the error Result.Err
// builds, and the split must be the one that error implies.
func TestGoodputSplitFollowsTheTrueError(t *testing.T) {
	scopes := []scope.Scope{-1, 99}
	for s := scope.ScopeNone; s <= scope.ScopePool; s++ {
		scopes = append(scopes, s)
	}
	const cpu, occupancy = 3 * time.Second, 10 * time.Second
	for _, status := range []scope.ResultStatus{scope.StatusExited, scope.StatusException,
		scope.StatusEscape, scope.StatusNoResult, scope.StatusNoResult + 1} {
		for _, sc := range scopes {
			for _, exit := range []int{0, 1} {
				res := scope.Result{Status: status, ExitCode: exit, Scope: sc, Exception: "X", Message: "m"}
				err := res.Err()
				if got, want := res.ErrScope(), scope.ScopeOf(err); got != want {
					t.Errorf("%+v: ErrScope() = %s, ScopeOf(Err()) = %s", res, got, want)
				}
				job := &daemon.Job{Attempts: []daemon.Attempt{
					{True: res, CPU: cpu, Start: 0, End: sim.Time(occupancy)},
					{True: res, CPU: cpu, Evicted: true},
					{True: res, CPU: cpu, FetchError: errors.New("fetch")},
					{True: res, CPU: cpu, LostContact: errors.New("silence")},
				}}
				var m Metrics
				m.addJob(job)
				want := Metrics{Jobs: 1, Unfinished: 1, Attempts: 4, Evictions: 1, FetchFailures: 1, LostContacts: 1}
				if err == nil || scope.ScopeOf(err) == scope.ScopeProgram {
					want.Goodput = cpu
				} else {
					want.Badput = occupancy
				}
				if m != want {
					t.Errorf("%+v:\n got %+v\nwant %+v", res, m, want)
				}
			}
		}
	}
}
