package daemon

import (
	"testing"
	"time"

	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
)

// TestMachineCrashMidJob crashes the execution machine while a job
// runs.  Nobody is told; the shadow's result timeout must discover
// the silence, widen it to remote-resource scope, and the schedd must
// requeue to another machine.
func TestMachineCrashMidJob(t *testing.T) {
	params := DefaultParams()
	params.ResultTimeout = 30 * time.Minute
	params.ChronicFailureThreshold = 1
	doomed := MachineConfig{Name: "doomed", Memory: 4096, AdvertiseJava: true}
	backup := MachineConfig{Name: "backup", Memory: 1024, AdvertiseJava: true}
	eng, _, schedd, mm, startds := testPool(t, params, doomed, backup)

	id := submitJavaJob(schedd, jvm.WellBehaved(20*time.Minute))
	// Crash the ranked-first machine 5 minutes into the run.
	eng.After(5*time.Minute, func() { startds[0].Crash() })
	runUntilDone(t, eng, schedd, 24*time.Hour)

	j := schedd.Job(id)
	if j.State != JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	if len(j.Attempts) < 2 {
		t.Fatalf("attempts = %d", len(j.Attempts))
	}
	first := j.Attempts[0]
	if first.Machine != "doomed" || first.LostContact == nil {
		t.Fatalf("first attempt = %+v", first)
	}
	se, _ := scope.AsError(first.LostContact)
	if se == nil || se.Code != "StarterVanished" || se.Scope != scope.ScopeRemoteResource {
		t.Errorf("lost contact error = %v", first.LostContact)
	}
	if last := j.LastAttempt(); last.Machine != "backup" {
		t.Errorf("final attempt at %s", last.Machine)
	}
	// The crashed machine's ads expired at the matchmaker.
	if mm.AdsExpired == 0 {
		t.Error("expected expired machine ads")
	}
	// The user never saw the crash.
	if len(schedd.Reports()) != 1 || schedd.Reports()[0].IncidentalLeak {
		t.Errorf("reports = %+v", schedd.Reports())
	}
}

// TestClaimTimeout crashes a machine between the match notification
// and the claim; the schedd's claim timeout must return the job to
// idle rather than strand it.
func TestClaimTimeout(t *testing.T) {
	params := DefaultParams()
	params.ChronicFailureThreshold = 0
	doomed := MachineConfig{Name: "doomed", Memory: 4096, AdvertiseJava: true}
	backup := MachineConfig{Name: "backup", Memory: 1024, AdvertiseJava: true}
	eng, _, schedd, _, startds := testPool(t, params, doomed, backup)

	// Crash the machine at the moment the first negotiation fires,
	// so the match notification is already on the wire but the claim
	// request will address a dead host.
	eng.After(params.NegotiationInterval+time.Millisecond, func() { startds[0].Crash() })

	id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	runUntilDone(t, eng, schedd, 24*time.Hour)

	j := schedd.Job(id)
	if j.State != JobCompleted {
		t.Fatalf("state = %v", j.State)
	}
	if j.LastAttempt().Machine != "backup" {
		t.Errorf("completed at %s", j.LastAttempt().Machine)
	}
	if schedd.ClaimsFailed == 0 {
		t.Error("expected a timed-out claim")
	}
}

// TestRestartAfterCrash returns a crashed machine to service.
func TestRestartAfterCrash(t *testing.T) {
	params := DefaultParams()
	params.ResultTimeout = 20 * time.Minute
	only := MachineConfig{Name: "only", Memory: 2048, AdvertiseJava: true}
	eng, _, schedd, _, startds := testPool(t, params, only)

	id := submitJavaJob(schedd, jvm.WellBehaved(5*time.Minute))
	eng.After(2*time.Minute, func() { startds[0].Crash() })
	eng.After(2*time.Hour, func() { startds[0].Restart() })
	runUntilDone(t, eng, schedd, 24*time.Hour)

	j := schedd.Job(id)
	if j.State != JobCompleted {
		t.Fatalf("state = %v, attempts = %d", j.State, len(j.Attempts))
	}
	if startds[0].Crashed() {
		t.Error("machine should be up after restart")
	}
	if len(j.Attempts) < 2 {
		t.Errorf("attempts = %d", len(j.Attempts))
	}
}

// TestFetchRetriesEscalateToHold is the regression for the unbounded
// shadow fetch retry: a persistent submit-side outage under a hard
// mount used to spin forever.  With MaxFetchRetries set, the shadow
// escalates after its budget and the schedd parks the job on hold
// with the execution-environment error — not requeued, not spun.
func TestFetchRetriesEscalateToHold(t *testing.T) {
	params := DefaultParams()
	params.Mount.Kind = MountHard
	params.Mount.RetryInterval = 30 * time.Second
	params.MaxFetchRetries = 5
	eng, _, schedd, _, _ := testPool(t, params, goodMachine("m1"))

	id := submitJavaJob(schedd, jvm.WellBehaved(5*time.Minute))
	// Take the submit file system down before the shadow's first
	// fetch and never bring it back.
	schedd.SubmitFS.SetOffline(true)
	runUntilDone(t, eng, schedd, 48*time.Hour)

	j := schedd.Job(id)
	if j.State != JobHeld {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	se, ok := scope.AsError(j.FinalErr)
	if !ok || se.Code != "FetchRetriesExhausted" {
		t.Fatalf("final error = %v", j.FinalErr)
	}
	if se.Scope != scope.ScopeLocalResource || se.Kind != scope.KindEscaping {
		t.Errorf("escalated error = %+v", se)
	}
	if len(schedd.Reports()) != 1 || schedd.Reports()[0].Disposition != scope.DispositionHold {
		t.Errorf("reports = %+v", schedd.Reports())
	}
	// One attempt, one escalation: the job never bounced around the
	// pool repeating the same submit-side failure.
	if len(j.Attempts) != 1 {
		t.Errorf("attempts = %d", len(j.Attempts))
	}
}

// TestFetchRetryBackoff verifies the capped exponential backoff: a
// four-hour outage under a hard mount costs logarithmically many
// probes, where the old constant interval would have burned hundreds.
func TestFetchRetryBackoff(t *testing.T) {
	params := DefaultParams()
	params.Mount.Kind = MountHard
	params.Mount.RetryInterval = time.Minute
	params.ResultTimeout = 0 // isolate the fetch path
	eng, _, schedd, _, _ := testPool(t, params, goodMachine("m1"))

	id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	schedd.SubmitFS.SetOffline(true)
	eng.After(4*time.Hour, func() { schedd.SubmitFS.SetOffline(false) })

	runUntilDone(t, eng, schedd, 20*time.Hour)

	j := schedd.Job(id)
	if j.State != JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	// Probes during the outage: 1m, 2m, 4m, ... capped at 64m.  A
	// 4h outage fits in well under 12 probes; the constant-interval
	// bug needed ~240.
	probes := int(schedd.SubmitFS.OpCount("read"))
	if probes > 12 {
		t.Errorf("submit FS probed %d times across a 4h outage; backoff is not engaging", probes)
	}
	if probes < 3 {
		t.Errorf("submit FS probed only %d times; retries are not happening", probes)
	}
}
