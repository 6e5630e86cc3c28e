package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/faultinject"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/pool"
)

// CrashRecovery is the acceptance experiment for submit-side crash
// durability: a small mixed workload runs once without faults to
// establish the baseline dispositions, the baseline's own event log
// yields one crash instant per lifecycle phase — idle, advertised,
// matched, claimed, executing, result pending — and the workload then
// reruns with the schedd killed at each instant and restarted from
// its write-ahead journal two minutes later.  The contract: after
// every crash, every job reaches exactly the disposition the
// no-crash baseline reached.  The user cannot tell the schedd died.
func CrashRecovery(seed int64) (*Report, error) {
	r := &Report{
		ID:    "crash-recovery",
		Title: "submit-side crash durability: same dispositions at every crash phase",
		Headers: []string{"crash phase", "crash at", "recoveries",
			"lease expiries", "requeues", "dispositions", "verdict"},
	}
	render, err := crashRecoveryRows(seed, r)
	if err != nil {
		return r, err
	}
	// Determinism contract: the whole sweep, rerun, must render the
	// same bytes.
	r2 := &Report{}
	render2, err := crashRecoveryRows(seed, r2)
	if err != nil {
		return r, fmt.Errorf("rerun: %v", err)
	}
	if render != render2 {
		return r, fmt.Errorf("crash-recovery sweep is not deterministic across reruns")
	}
	r.AddNote("recovery replays the journal; dispositions are byte-equal to the baseline at every phase")
	r.AddNote("sweep rerun with the same seed is byte-identical (determinism contract)")
	return r, nil
}

// crashRecoveryRows runs the baseline plus one run per crash phase,
// appending a row each, and returns a canonical rendering of every
// outcome for the determinism check.
func crashRecoveryRows(seed int64, r *Report) (string, error) {
	base, events, err := crashRecoveryRun(seed, "")
	if err != nil {
		return "", err
	}
	r.AddRow("none (baseline)", "-", "0", "0",
		base.requeues, base.dispositions, "ok")

	for _, ph := range crashPhases(events) {
		faults := fmt.Sprintf(
			"fault class=schedd-crash site=schedd:schedd at=%s for=2m0s\n", ph.at)
		got, _, err := crashRecoveryRun(seed, faults)
		if err != nil {
			return "", fmt.Errorf("phase %s: %v", ph.name, err)
		}
		verdict := "ok"
		if got.dispositions != base.dispositions {
			verdict = fmt.Sprintf("DIVERGED: %s", got.dispositions)
			err = fmt.Errorf("phase %s: dispositions %s, baseline %s",
				ph.name, got.dispositions, base.dispositions)
		}
		if got.recoveries != 1 {
			verdict = fmt.Sprintf("recoveries=%d", got.recoveries)
			err = fmt.Errorf("phase %s: recoveries = %d, want 1", ph.name, got.recoveries)
		}
		r.AddRow(ph.name, ph.at.String(), fmt.Sprint(got.recoveries),
			fmt.Sprint(got.leaseExpiries), got.requeues, got.dispositions, verdict)
		if err != nil {
			return "", err
		}
	}
	var b strings.Builder
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, "|"))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// crashOutcome summarizes one run for comparison against the
// baseline.
type crashOutcome struct {
	// dispositions is the per-job terminal outcome signature: state,
	// disposition, and the scope signature of what the user was
	// shown, joined in job order.
	dispositions  string
	recoveries    int
	leaseExpiries int
	requeues      string
}

// crashPhase names one lifecycle instant to kill the schedd at.
type crashPhase struct {
	name string
	at   time.Duration
}

// crashPhases derives the six crash instants from the baseline event
// log of the long-running job, so the phases track the protocol
// rather than hard-coding its timing.
func crashPhases(events []daemon.JobEvent) []crashPhase {
	at := func(kind daemon.EventKind) time.Duration {
		for _, e := range events {
			if e.Kind == kind {
				return time.Duration(e.At)
			}
		}
		return 0
	}
	submitted := at(daemon.EventSubmitted)
	executing := at(daemon.EventExecuting)
	completed := at(daemon.EventCompleted)
	return []crashPhase{
		// Before anything has left the schedd: only the submit
		// records exist.
		{"idle", submitted + time.Millisecond},
		// The job ad is at the matchmaker but no negotiation has run.
		{"advertised", submitted + 10*time.Millisecond},
		// Just after the match notification: the claim request is on
		// the wire and its reply will address a dead schedd.
		{"matched", at(daemon.EventMatched) + time.Millisecond},
		// Just after the claim grant: the shadow was born and dies
		// with the schedd, orphaning a freshly activated claim.
		{"claimed", executing + time.Millisecond},
		// Mid-execution, shadow established and renewing its lease.
		{"executing", executing + 5*time.Minute},
		// The starter's result is in flight to a schedd that will not
		// be there to receive it.
		{"result-pending", completed - 7*time.Millisecond},
	}
}

// crashRecoveryRun executes the workload with the given fault lines
// (empty for the baseline) and returns the outcome plus the
// long-running job's event log.
func crashRecoveryRun(seed int64, faults string) (crashOutcome, []daemon.JobEvent, error) {
	var out crashOutcome
	params := daemon.DefaultParams()
	params.ResultTimeout = 30 * time.Minute
	params.ChronicFailureThreshold = 1
	p := pool.New(pool.Config{Seed: seed, Params: params,
		Machines: []daemon.MachineConfig{
			{Name: "big", Memory: 4096, AdvertiseJava: true},
			{Name: "small", Memory: 1024, AdvertiseJava: true},
		}})
	if faults != "" {
		in := faultinject.New(faultinject.PoolTargets(p))
		sc, err := faultinject.Parse(fmt.Sprintf("seed = %d\n%s", seed, faults))
		if err != nil {
			return out, nil, fmt.Errorf("scenario: %v", err)
		}
		if err := in.Apply(sc); err != nil {
			return out, nil, fmt.Errorf("apply: %v", err)
		}
	}
	// One long well-behaved job (the crash target), one clean exit
	// code, one program crash: three distinct dispositions to hold
	// stable across every phase.
	progs := []*jvm.Program{
		jvm.WellBehaved(10 * time.Minute),
		jvm.ExitWith(3, 2*time.Minute),
		jvm.NullPointer(),
	}
	ids := p.SubmitJava(len(progs), func(i int) *jvm.Program { return progs[i] })
	p.Run(24 * time.Hour)

	var sigs []string
	reports := p.Schedd.Reports()
	for _, id := range ids {
		j := p.Schedd.Job(id)
		sig := fmt.Sprintf("%s/none/none", j.State)
		for _, rep := range reports {
			if rep.Job != id {
				continue
			}
			shown := rep.Err
			if shown == nil {
				shown = rep.Result.Err()
			}
			sig = fmt.Sprintf("%s/%s/%s", j.State, rep.Disposition, errSig(shown))
			break
		}
		sigs = append(sigs, sig)
	}
	m := p.Metrics()
	out.dispositions = strings.Join(sigs, " ")
	out.recoveries = m.Recoveries
	out.leaseExpiries = m.LeaseExpiries
	out.requeues = fmt.Sprint(m.Requeues)
	return out, p.Schedd.Job(ids[0]).Events, nil
}
