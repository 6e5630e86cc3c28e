package experiments

import (
	"fmt"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/faultinject"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/scope"
)

// The federated half of the sweep matrix: the three flocking fault
// classes, each exercised against a multi-pool federation whose home
// pool cannot run its own job — every cell's job *must* flock to
// survive, so the injected failure strikes exactly the machinery
// under test.  The error-scope claim the cells assert is the paper's:
// a dead peer pool invalidates only the remote arrangement (the
// advertisement, or the claim), never the job, which requeues at home
// with zero loss.

// fedFlockAfter is the starvation threshold every federated cell runs
// with; small enough that a 24h limit leaves room for multiple
// starve-flock-fail rounds.
const fedFlockAfter = 2 * time.Minute

// fedHome is the standard starved home pool: one machine too small
// for the standard 128MB job ad, so local matching reports no-match
// forever and every job starves into the flocking path.
func fedHome(flockTo ...string) pool.FedPoolConfig {
	return pool.FedPoolConfig{
		Name:     "p1",
		Machines: []daemon.MachineConfig{{Name: "c000", Memory: 64, AdvertiseJava: true}},
		FlockTo:  flockTo,
	}
}

// fedPeer is a one-machine peer pool big enough for anything.
func fedPeer(name string) pool.FedPoolConfig {
	return pool.FedPoolConfig{
		Name:     name,
		Machines: []daemon.MachineConfig{{Name: "c000", Memory: 2048, AdvertiseJava: true}},
	}
}

// fedOnePeer is home -> p2: the minimal federation, with nowhere else
// to go when p2 fails.
func fedOnePeer() []pool.FedPoolConfig {
	return []pool.FedPoolConfig{fedHome("p2"), fedPeer("p2")}
}

// fedTwoPeers is home -> p2 -> p3: p3 is the healthy elsewhere when
// p2 fails, the federated twin of bigSmall's "small".
func fedTwoPeers() []pool.FedPoolConfig {
	return []pool.FedPoolConfig{fedHome("p2", "p3"), fedPeer("p2"), fedPeer("p3")}
}

// fedCells is the federated sweep matrix: every flocking fault class
// at three or more injection sites.
func fedCells() []simCell {
	rr := scope.ScopeRemoteResource
	completed := func(first scope.Scope, kind scope.Kind, min, max int, on string) sweepExpect {
		return sweepExpect{state: daemon.JobCompleted, disp: scope.DispositionComplete,
			minAttempts: min, maxAttempts: max, firstScope: first, firstKind: kind, finalOn: on}
	}
	minFlock := func(departures, returns, replyErrs int) func(*pool.Federation, *daemon.Schedd) error {
		return func(f *pool.Federation, home *daemon.Schedd) error {
			if home.FlockDepartures < departures {
				return fmt.Errorf("flock departures = %d, want >= %d", home.FlockDepartures, departures)
			}
			if home.FlockReturns < returns {
				return fmt.Errorf("flock returns = %d, want >= %d", home.FlockReturns, returns)
			}
			if home.FlockReplyErrors < replyErrs {
				return fmt.Errorf("flock reply errors = %d, want >= %d", home.FlockReplyErrors, replyErrs)
			}
			return nil
		}
	}
	// zeroLoss is the acceptance invariant for the pool-death cells:
	// the peer's death cost the job only its remote arrangement — it
	// requeued at home, was never held or aborted, and its one report
	// is a completion.
	zeroLoss := func(next func(*pool.Federation, *daemon.Schedd) error) func(*pool.Federation, *daemon.Schedd) error {
		return func(f *pool.Federation, home *daemon.Schedd) error {
			for _, j := range home.Jobs() {
				if j.State != daemon.JobCompleted {
					return fmt.Errorf("job %d lost to the peer-pool death: state %s", j.ID, j.State)
				}
			}
			for _, rep := range home.Reports {
				if rep.Disposition != scope.DispositionComplete {
					return fmt.Errorf("job %d surfaced %s to the user; peer death must stay invisible",
						rep.Job, rep.Disposition)
				}
			}
			if next != nil {
				return next(f, home)
			}
			return nil
		}
	}

	return []simCell{
		// --- peer-negotiator-crash: the peer pool's matchmaker is
		// partitioned.  Dead from the start it is never granted; dead
		// after a grant the silence is discovered by the pacing clock
		// and the job escalates down the peer order ------------------
		{
			class: faultinject.ClassPeerNegotiatorCrash, site: "pool:p2 (dead before first pong)",
			faults: "fault class=peer-negotiator-crash site=pool:p2 at=1ms\n",
			pools:  fedTwoPeers,
			// The coordinator's pings go unanswered from the start, so
			// the first grant already skips p2 for p3.
			expect: completed(scope.ScopeNone, 0, 1, 1, "p3-c000"),
			check:  minFlock(1, 0, 0),
		},
		{
			class: faultinject.ClassPeerNegotiatorCrash, site: "pool:p2 (dies mid-negotiation, job escalates)",
			faults: "fault class=peer-negotiator-crash site=pool:p2 at=2m5s\n",
			pools:  fedTwoPeers,
			// The grant lands and the job advertises at p2, whose
			// negotiator dies before its next cycle can match.  A dead
			// negotiator sends no no-match — the rescue is the pacing
			// clock, which re-queries at the next level and moves the
			// job to p3.
			expect: completed(scope.ScopeNone, 0, 1, 1, "p3-c000"),
			check:  minFlock(2, 0, 0),
		},
		{
			class: faultinject.ClassPeerNegotiatorCrash, site: "pool:p2 (partition window, job waits it out)",
			faults: "fault class=peer-negotiator-crash site=pool:p2 at=1ms for=10m0s\n",
			pools:  fedOnePeer,
			// With the only peer dark the coordinator denies every
			// query; when the window lifts its pings re-out the peer as
			// live and the next paced query is granted.
			expect: completed(scope.ScopeNone, 0, 1, 1, "p2-c000"),
			check: func(f *pool.Federation, home *daemon.Schedd) error {
				if fd := f.Pool("p1").Flockd; fd == nil || fd.Denials < 1 {
					return fmt.Errorf("coordinator never denied during the partition window")
				}
				return minFlock(1, 0, 0)(f, home)
			},
		},
		// --- peer-pool-crash: matchmaker partitioned and every
		// machine dead.  The running attempt's loss is the shadow's
		// result timeout — a remote-resource-scope LostContact that
		// invalidates the claim and requeues the job at home ---------
		{
			class: faultinject.ClassPeerPoolCrash, site: "pool:p2 (mid-run, job retries at p3)",
			faults: "fault class=peer-pool-crash site=pool:p2 at=8m0s\n",
			pools:  fedTwoPeers,
			prog:   func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) },
			expect: completed(rr, scope.KindEscaping, 2, 0, "p3-c000"),
			check:  zeroLoss(minFlock(2, 0, 0)),
		},
		{
			class: faultinject.ClassPeerPoolCrash, site: "pool:p2 (restart window, job returns to p2)",
			faults: "fault class=peer-pool-crash site=pool:p2 at=8m0s for=30m0s\n",
			pools:  fedOnePeer,
			prog:   func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) },
			// With no other peer the requeued job is denied until p2's
			// machines restart and its negotiator answers pings again;
			// the same pool that lost the claim then completes the job.
			expect: completed(rr, scope.KindEscaping, 2, 0, "p2-c000"),
			check:  zeroLoss(minFlock(2, 0, 0)),
		},
		{
			class: faultinject.ClassPeerPoolCrash, site: "pool:p2 (dies before the claim, no attempt lost)",
			faults: "fault class=peer-pool-crash site=pool:p2 at=2m30s\n",
			pools:  fedTwoPeers,
			// The pool dies after the grant but before its negotiator
			// can match the job: no claim exists yet, so nothing is
			// charged to the job — the pacing clock escalates it to p3
			// and its only attempt is the clean one.
			expect: completed(scope.ScopeNone, 0, 1, 1, "p3-c000"),
			check:  zeroLoss(minFlock(2, 0, 0)),
		},
		// --- flock-reply-truncate: the grant itself is cut mid-line
		// on the inter-pool wire.  The parse failure is a network-
		// scope error confined to the exchange: the job stays put and
		// the pacing clock simply asks again --------------------------
		{
			class: faultinject.ClassFlockReplyTruncate, site: "kind:flock-reply (first grant cut mid-field)",
			faults: "fault class=flock-reply-truncate site=kind:flock-reply count=1\n",
			pools:  fedOnePeer,
			expect: completed(scope.ScopeNone, 0, 1, 1, "p2-c000"),
			check:  minFlock(1, 0, 1),
		},
		{
			class: faultinject.ClassFlockReplyTruncate, site: "kind:flock-reply (two grants cut at the keyword)",
			faults: "fault class=flock-reply-truncate site=kind:flock-reply count=2 param=5\n",
			pools:  fedOnePeer,
			expect: completed(scope.ScopeNone, 0, 1, 1, "p2-c000"),
			check:  minFlock(1, 0, 2),
		},
		{
			class: faultinject.ClassFlockReplyTruncate, site: "actor:p1-schedd (home schedd's flock wire)",
			faults: "fault class=flock-reply-truncate site=actor:p1-schedd count=1\n",
			pools:  fedTwoPeers,
			expect: completed(scope.ScopeNone, 0, 1, 1, "p2-c000"),
			check:  minFlock(1, 0, 1),
		},
	}
}
