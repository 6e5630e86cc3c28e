package daemon

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
	"github.com/errscope/grid/internal/vfs"
)

// UserReport is what a user finally sees for a job: the schedd's
// disposition and the result or error that accompanied it.
type UserReport struct {
	Job         JobID
	Disposition scope.Disposition
	// Result is the program result for completed jobs.
	Result scope.Result
	// Err is the error for unexecutable or held jobs.
	Err error
	// IncidentalLeak marks a completed job whose ground-truth
	// condition was environmental (wider than program scope): the
	// user received an accidental property of the execution site as
	// if it were a program result.  This is the frustration of
	// Section 2.3, measurable only because the simulation knows the
	// truth.
	IncidentalLeak bool
}

// Schedd owns the persistent job queue: it advertises idle jobs,
// claims matched machines, spawns a shadow per running job, and is
// the last line of defense for error disposition (Section 4).
type Schedd struct {
	bus    Runtime
	params Params
	name   string
	tr     obs.Tracer

	// SubmitFS is the submit machine's file system, served to
	// running jobs by their shadows.
	SubmitFS *vfs.FileSystem

	jobs   map[JobID]*Job
	order  []JobID
	nextID JobID

	// fast selects the throughput path: the idle-job index, the
	// non-terminal counter, shared precompiled ads, and write-ahead
	// group commit.  The reference arm (Params.DisableScheddFastPath)
	// keeps the original O(queue) scans and one-append-per-record
	// journal so determinism tests can compare the two.
	fast bool

	// idleOrder and idlePos index the idle jobs in the order they
	// became idle, with tombstoned (nil) slots compacted lazily, so
	// the periodic advertisement walks O(idle) entries — the jobs
	// themselves, no queue lookup each — instead of the whole queue.
	idleOrder []*Job
	idlePos   map[JobID]int
	idleStale int
	// nonTerminal counts jobs not yet in a final state; AllTerminal —
	// polled every scheduling step — reads it in O(1).
	nonTerminal int

	shadowSeq int
	// shadows tracks the live shadow of each running job, so a schedd
	// crash can take its children down with it.
	shadows map[JobID]*Shadow
	// machineFailures tracks consecutive failures per machine for the
	// chronic-failure avoidance policy, with the instant of the last
	// failure so stale grudges can expire (see expireFailures).
	machineFailures map[string]failureRecord
	// avoidedCache is the sorted avoided-machine list, rebuilt only
	// when the failure table changes; every idle advertisement reads
	// it.
	avoidedCache []string
	avoidedDirty bool

	// wal is the write-ahead journal: every queue transition is
	// appended before it is acted on, so the queue survives a crash
	// of this process (see scheddjournal.go).
	wal *journal.Journal
	// walAppends counts entries since the last compaction.
	walAppends int
	// Group commit (fast path): walBuf holds the records of the open
	// batch, outbox the sends deferred until those records are
	// durable, and commitArmed whether the commit event is scheduled
	// for the end of the current instant.
	walBuf      [][]byte
	outbox      []pendingSend
	commitArmed bool
	// snapBuf is the reused snapshot assembly buffer; reportEnc and
	// reportEncN cache the encoded prefix of Reports, which is
	// append-only between recoveries.
	snapBuf    []byte
	reportEnc  []byte
	reportEncN int
	// crashed marks a schedd that is down; epoch invalidates timers
	// (claim timeouts, requeue backoffs) armed before a crash.
	crashed bool
	epoch   int
	// stopAds cancels the periodic idle-job advertisement ticker.
	stopAds func()

	// Reports collects what users were shown, in completion order.
	Reports []UserReport

	// Metrics.  MatchesReceived/MatchesDeclined/ClaimsFailed are
	// transient counters and do not survive a crash; Requeues is
	// recomputed from the journal, and Recoveries counts restarts.
	MatchesReceived int
	MatchesDeclined int
	ClaimsFailed    int
	Requeues        int
	Recoveries      int
	// Flock metrics: queries sent to the coordinator, departures to a
	// peer negotiator, returns home, and replies dropped as corrupt.
	FlockQueries     int
	FlockDepartures  int
	FlockReturns     int
	FlockReplyErrors int
}

// failureRecord is one machine's entry in the chronic-failure table:
// the consecutive-failure count and when the streak was last
// extended.
type failureRecord struct {
	count int
	last  sim.Time
}

// pendingSend is one outgoing message deferred behind the open
// journal batch.
type pendingSend struct {
	to, kind string
	body     any
}

// NewSchedd creates, registers, and starts a schedd with its own
// submit-side file system.
func NewSchedd(bus Runtime, params Params, name string) *Schedd {
	bus = affinity(bus, name)
	s := &Schedd{
		bus:             bus,
		params:          params,
		name:            name,
		tr:              params.tracer(),
		fast:            !params.DisableScheddFastPath,
		SubmitFS:        vfs.New(),
		jobs:            make(map[JobID]*Job),
		idlePos:         make(map[JobID]int),
		shadows:         make(map[JobID]*Shadow),
		machineFailures: make(map[string]failureRecord),
		avoidedDirty:    true,
		wal:             journal.New(),
	}
	bus.Register(name, s)
	s.stopAds = bus.Every(params.AdInterval, s.advertiseIdle)
	return s
}

// Name returns the schedd's actor name.
func (s *Schedd) Name() string { return s.name }

// Submit queues a job; the job's Ad and Program must be set.  It
// returns the assigned id.
func (s *Schedd) Submit(job *Job) JobID {
	s.nextID++
	job.ID = s.nextID
	job.State = JobIdle
	job.Submitted = s.bus.Now()
	// Compile Requirements/Rank once up front: every periodic
	// advertise shares (or copies) this ad, and copies inherit the
	// caches.
	job.Ad.Precompile()
	s.journalAppend(recSubmit(job))
	s.addJob(job)
	s.logEvent(job, EventSubmitted, "owner %s", job.Owner)
	s.advertiseJob(job)
	// Submission is acknowledged to the user, so its record must be
	// durable before Submit returns; an open batch is flushed now
	// rather than at the end of the instant.
	s.commitWAL(s.epoch)
	return job.ID
}

// addJob registers a job in the queue maps and the derived indexes.
// Both Submit and journal replay funnel through it.
func (s *Schedd) addJob(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if !j.State.Terminal() {
		s.nonTerminal++
	}
	if j.State == JobIdle {
		s.idleAdd(j)
	}
}

// setState moves a job between states, keeping the idle index and the
// non-terminal count consistent.  Every state transition — live or
// replayed — goes through here.
func (s *Schedd) setState(j *Job, st JobState) {
	if j.State == st {
		return
	}
	if j.State == JobIdle {
		s.idleRemove(j.ID)
	}
	if st == JobIdle {
		s.idleAdd(j)
	}
	if !j.State.Terminal() && st.Terminal() {
		s.nonTerminal--
	}
	j.State = st
}

// idleAdd appends a job to the idle index.
func (s *Schedd) idleAdd(j *Job) {
	if _, ok := s.idlePos[j.ID]; ok {
		return
	}
	s.idlePos[j.ID] = len(s.idleOrder)
	s.idleOrder = append(s.idleOrder, j)
}

// idleRemove tombstones a job's slot; compaction happens lazily on
// the next advertisement pass, never mid-iteration.
func (s *Schedd) idleRemove(id JobID) {
	pos, ok := s.idlePos[id]
	if !ok {
		return
	}
	delete(s.idlePos, id)
	s.idleOrder[pos] = nil
	s.idleStale++
}

// compactIdle squeezes the tombstones out of the idle index.
func (s *Schedd) compactIdle() {
	live := s.idleOrder[:0]
	for _, j := range s.idleOrder {
		if j != nil {
			s.idlePos[j.ID] = len(live)
			live = append(live, j)
		}
	}
	clear(s.idleOrder[len(live):])
	s.idleOrder = live
	s.idleStale = 0
}

// Job returns the job with the given id.
func (s *Schedd) Job(id JobID) *Job { return s.jobs[id] }

// Jobs returns all jobs in submission order.
func (s *Schedd) Jobs() []*Job {
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// AllTerminal reports whether every job reached a final state.
func (s *Schedd) AllTerminal() bool {
	if s.fast {
		return s.nonTerminal == 0
	}
	for _, j := range s.jobs {
		if !j.State.Terminal() {
			return false
		}
	}
	return true
}

func (s *Schedd) advertiseIdle() {
	s.expireFailures()
	if !s.fast {
		for _, id := range s.order {
			if j := s.jobs[id]; j.State == JobIdle {
				s.advertiseJob(j)
				s.rescueFlocked(j)
			}
		}
		return
	}
	if s.idleStale > 0 && s.idleStale >= len(s.idleOrder)/2 {
		s.compactIdle()
	}
	for _, j := range s.idleOrder {
		if j == nil {
			continue
		}
		s.advertiseJob(j)
		s.rescueFlocked(j)
	}
}

// rescueFlocked re-runs the flock decision for a job advertised at a
// peer negotiator.  A live peer that cannot match the job says so
// with a no-match, and handleNoMatch escalates; a *dead* peer says
// nothing at all, so without this periodic check a flocked job would
// wait on a silent pool forever.  The silence is discovered by time,
// not by a message (Section 5): maybeFlock's pacing clock fires a
// FlockAfter after the departure, and the coordinator — whose pings
// have meanwhile outed the dead peer — redirects or recalls the job.
func (s *Schedd) rescueFlocked(j *Job) {
	if j.flockedTo != "" {
		s.maybeFlock(j)
	}
}

// expireFailures forgets machines whose failure streak last grew more
// than twice ChronicRelaxAfter ago.  Without expiry the table (and
// the avoided list every idle ad carries) grows with every machine
// that ever failed, for the life of the schedd.  The bound is
// deliberately looser than the relax deadline: a job starved by
// avoidance gets the targeted remedy — relaxation, with its logged
// event — at ChronicRelaxAfter, and only strictly later does the
// table-wide backstop drop the stale grudge itself.  A zero
// ChronicRelaxAfter disables expiry along with relaxation.
func (s *Schedd) expireFailures() {
	ttl := 2 * s.params.ChronicRelaxAfter
	if ttl <= 0 || len(s.machineFailures) == 0 {
		return
	}
	now := s.bus.Now()
	for machine, rec := range s.machineFailures {
		if now.Sub(rec.last) >= ttl {
			delete(s.machineFailures, machine)
			s.avoidedDirty = true
		}
	}
}

// avoidedMachines lists the machines the chronic-failure policy
// currently excludes, sorted for deterministic ads.  The list is
// cached between failure-table changes: every idle job's every
// advertisement reads it.
func (s *Schedd) avoidedMachines() []string {
	if s.params.ChronicFailureThreshold <= 0 {
		return nil
	}
	if s.avoidedDirty {
		s.avoidedCache = s.avoidedCache[:0]
		for machine, rec := range s.machineFailures {
			if rec.count >= s.params.ChronicFailureThreshold {
				s.avoidedCache = append(s.avoidedCache, machine)
			}
		}
		slices.Sort(s.avoidedCache)
		s.avoidedDirty = false
	}
	return s.avoidedCache
}

// relaxed reports whether the avoidance constraint is currently
// dropped for the job.
func (s *Schedd) relaxed(j *Job) bool { return j.avoidanceRelaxed }

// idleFor returns how long the job has gone without an attempt: the
// time since its last attempt ended, or since submission.
func (s *Schedd) idleFor(j *Job) time.Duration {
	since := j.Submitted
	if att := j.LastAttempt(); att != nil && att.End > since {
		since = att.End
	}
	return s.bus.Now().Sub(since)
}

// send routes one outgoing message, deferring it while a journal
// batch is open: a message is an externally visible action, and the
// append-before-act discipline requires the records justifying it to
// be durable first.  With no batch open it is a plain bus send.
func (s *Schedd) send(to, kind string, body any) {
	if s.commitArmed {
		s.outbox = append(s.outbox, pendingSend{to: to, kind: kind, body: body})
		return
	}
	s.bus.Send(s.name, to, kind, body)
}

// jobRefName returns the job's advertisement name, rendered once and
// cached on the job (it is advertised and withdrawn many times).
func (s *Schedd) jobRefName(j *Job) string {
	if j.refName == "" {
		j.refName = s.name + "#" + strconv.Itoa(int(j.ID))
	}
	return j.refName
}

// matchmakerFor returns the negotiator currently serving the job: the
// peer it flocked to, or the home pool's own matchmaker.
func (s *Schedd) matchmakerFor(j *Job) string {
	if j.flockedTo != "" {
		return j.flockedTo
	}
	return s.params.matchmaker()
}

// advertiseJob sends the job's request to its negotiator.  The body is
// boxed once and the same interface value re-sent for as long as it
// would read the same: the periodic refresh of an unchanged idle job —
// most of a deep queue's traffic — allocates nothing.  The ad and the
// flocked flag are the only fields that change in the life of a Job
// value.
func (s *Schedd) advertiseJob(j *Job) {
	ad, flocked := s.effectiveAd(j), j.flockedTo != ""
	if sent, _ := j.adBody.(advertiseMsg); sent.Ad != ad || sent.Flocked != flocked {
		j.adBody = advertiseMsg{
			Kind:    "job",
			Name:    s.jobRefName(j),
			Schedd:  s.name,
			Job:     j.ID,
			Ad:      ad,
			Flocked: flocked,
		}
	}
	s.send(s.matchmakerFor(j), kindAdvertise, j.adBody)
}

// withdrawJob removes the job's request from its current negotiator so
// stale advertisements cannot produce matches for jobs no longer idle.
func (s *Schedd) withdrawJob(j *Job) {
	s.send(s.matchmakerFor(j), kindAdvertise, advertiseMsg{
		Kind:    "job",
		Name:    s.jobRefName(j),
		Schedd:  s.name,
		Job:     j.ID,
		Ad:      nil,
		Flocked: j.flockedTo != "",
	})
}

// effectiveAd returns the ad the schedd actually advertises: the
// job's own ad, strengthened — when chronic-failure avoidance is on —
// with a requirement steering the matchmaker away from machines with
// repeated failures.  Extending Requirements is the ClassAd idiom for
// schedd-side policy.
func (s *Schedd) effectiveAd(j *Job) *classad.Ad {
	var avoided []string
	if !s.relaxed(j) {
		avoided = s.avoidedMachines()
	}
	if len(avoided) == 0 {
		// Nothing to strengthen.  The precompiled ad is immutable
		// from here on — evaluation touches only its memo caches — so
		// the fast path shares it instead of copying per
		// advertisement, and the matchmaker recognizes the pointer
		// and skips re-indexing.
		if s.fast {
			return j.Ad
		}
		return j.Ad.Copy()
	}
	ad := j.Ad.Copy()
	var list strings.Builder
	list.WriteString("{")
	for i, m := range avoided {
		if i > 0 {
			list.WriteString(", ")
		}
		list.WriteString(strconv.Quote(m))
	}
	list.WriteString("}")
	req := "true"
	if e, ok := ad.Lookup(classad.AttrRequirements); ok {
		req = e.String()
	}
	ad.MustSetExpr(classad.AttrRequirements,
		fmt.Sprintf("(%s) && !member(target.Machine, %s)", req, list.String()))
	return ad
}

// Receive implements sim.Actor.
func (s *Schedd) Receive(msg sim.Message) {
	switch body := msg.Body.(type) {
	case matchNotifyMsg:
		s.handleMatch(body)
	case noMatchMsg:
		s.handleNoMatch(body)
	case claimReplyMsg:
		s.receiveClaim(msg.From, body)
	case flockReplyMsg:
		s.handleFlockReply(body)
	case ckptCommitMsg:
		s.handleCkptCommit(body)
	case claimVacatedMsg:
		s.handleClaimVacated(body)
	case jobFinalMsg:
		s.handleFinal(body)
	}
}

// handleCkptCommit journals a checkpoint the shadow validated and
// advances the job's durable resume point.  The append-before-act
// discipline makes the checkpoint survive a schedd crash: recovery
// replays the record, and the next attempt — on any machine — resumes
// from the committed CPU instead of from scratch.
func (s *Schedd) handleCkptCommit(m ckptCommitMsg) {
	j, ok := s.jobs[m.Job]
	if !ok || j.State != JobRunning || m.CPU <= j.CheckpointCPU {
		return
	}
	s.journalAppend(recCkpt(j.ID, s.bus.Now(), m.CPU))
	j.CheckpointCPU = m.CPU
	s.logEvent(j, EventCheckpointed, "committed %v", m.CPU)
}

// handleClaimVacated closes an attempt whose machine vacated while the
// claim was seated but no starter was running — evicted between the
// grant and the activation, or preempted before the job details
// arrived.  The report is routed through the job's live shadow so the
// attempt closes exactly once, by the same path a running eviction
// takes.
func (s *Schedd) handleClaimVacated(m claimVacatedMsg) {
	j, ok := s.jobs[m.Job]
	if !ok || j.State != JobRunning {
		return
	}
	sh := s.shadows[m.Job]
	if sh == nil || sh.machine != m.Machine {
		return
	}
	sh.handleEvicted(jobEvictedMsg{
		Job:           m.Job,
		CheckpointCPU: m.CheckpointCPU,
		Preempted:     m.Preempted,
	})
}

// handleNoMatch reacts to the matchmaker finding zero compatible
// machines for an idle job.  When the schedd's own avoidance
// constraint is in force and the job has already waited out
// ChronicRelaxAfter, avoidance is starving the job — every machine
// it could use looks chronic — and the constraint is dropped: a
// chronically failing machine is a better bet than starvation, and
// failing there still moves the job toward the MaxAttempts hold the
// user must eventually see.  An idle spell in a busy-but-healthy
// pool never trips this: contention resolves in minutes, and freed
// machines re-advertise compatible ads long before the deadline.
//
// When relaxation is not the remedy — nothing of ours to relax, or
// the job is starving even relaxed — the same starvation signal feeds
// flocking: a job the whole local pool cannot run is offered to a
// peer pool instead (maybeFlock).
func (s *Schedd) handleNoMatch(m noMatchMsg) {
	j, ok := s.jobs[m.Job]
	if !ok || j.State != JobIdle {
		return
	}
	if !s.relaxed(j) &&
		s.params.ChronicRelaxAfter > 0 &&
		s.idleFor(j) >= s.params.ChronicRelaxAfter &&
		len(s.avoidedMachines()) > 0 {
		s.journalAppend(recEvent("relax", j.ID, s.bus.Now()))
		j.avoidanceRelaxed = true
		s.logEvent(j, EventAvoidanceRelaxed,
			"idle %v with no compatible machine; matching chronic machines again",
			s.idleFor(j))
		s.advertiseJob(j)
		return
	}
	s.maybeFlock(j)
}

// maybeFlock asks the flock coordinator for a peer pool once local
// matching has demonstrably starved the job: it is idle past
// FlockAfter and the negotiator serving it reports zero compatible
// machines.  Queries are paced to one per FlockAfter, and each asks
// for the level past the job's current one, so repeated starvation
// walks the configured peer order instead of hammering the first
// entry.
func (s *Schedd) maybeFlock(j *Job) {
	if !s.params.flocking() || j.State != JobIdle {
		return
	}
	now := s.bus.Now()
	// The pacing clock runs from the last query, answered or not: a
	// lost flock-reply therefore delays the job one period instead of
	// wedging it mid-handshake forever.
	if j.flockPendingAt > 0 && now.Sub(j.flockPendingAt) < s.params.FlockAfter {
		return
	}
	j.flockPending = false
	if s.idleFor(j) < s.params.FlockAfter {
		return
	}
	j.flockPending = true
	j.flockPendingAt = now
	s.FlockQueries++
	s.tr.Count("schedd.flock.queries", 1)
	s.send(s.params.Flockd, kindFlockQuery, flockQueryMsg{
		Job: j.ID, Schedd: s.name, Level: j.flockLevel + 1})
}

// handleFlockReply applies the coordinator's decision.  A reply that
// fails to parse — truncated or corrupted on the one wire that
// crosses pool-administration boundaries — is a scoped network error:
// it invalidates this exchange and nothing else.  The job keeps its
// current advertisement, the error is traced and counted, and the
// pacing clock retries the query a FlockAfter later.
func (s *Schedd) handleFlockReply(r flockReplyMsg) {
	j, ok := s.jobs[r.Job]
	if !ok || !j.flockPending {
		return
	}
	j.flockPending = false
	m, err := ParseFlockMsg(r.Payload)
	if err != nil {
		s.FlockReplyErrors++
		s.tr.Count("schedd.flock.reply_errors", 1)
		if s.tr.Enabled() {
			s.tr.Emit(errorEvent(int64(s.bus.Now()), s.name, j.ID, err))
		}
		return
	}
	if j.State != JobIdle || m.Job != j.ID {
		return
	}
	now := s.bus.Now()
	switch m.Op {
	case FlockGrant:
		s.journalAppend(recFlock(j.ID, now, m.Level, m.Negotiator))
		s.withdrawJob(j) // from the negotiator that starved it
		j.flockedTo = m.Negotiator
		j.flockLevel = m.Level
		j.flockedAt = now
		s.FlockDepartures++
		s.tr.Count("schedd.flock.departures", 1)
		s.logEvent(j, EventFlocked, "to %s (level %d)", m.Negotiator, m.Level)
		s.advertiseJob(j)
	case FlockDeny:
		if j.flockedTo == "" {
			return // already home; the pacing clock retries later
		}
		s.journalAppend(recFlock(j.ID, now, 0, ""))
		s.withdrawJob(j) // from the peer that no longer serves it
		j.flockedTo = ""
		j.flockLevel = 0
		j.flockedAt = now
		s.FlockReturns++
		s.tr.Count("schedd.flock.returns", 1)
		s.logEvent(j, EventFlockReturned, "%s", m.Reason)
		s.advertiseJob(j)
	}
}

// resetFlock returns a job's flock state to home.  Every attempt and
// every recovery does this: what flocking moves is the job's
// advertisement, and an attempt or a crash invalidates exactly that
// remote arrangement — never the job itself.
func (s *Schedd) resetFlock(j *Job) {
	j.flockedTo = ""
	j.flockLevel = 0
	j.flockedAt = 0
	j.flockPending = false
	j.flockPendingAt = 0
}

// handleMatch claims the machine the matchmaker proposed, unless the
// chronic-failure policy vetoes it.
func (s *Schedd) handleMatch(m matchNotifyMsg) {
	s.MatchesReceived++
	j, ok := s.jobs[m.Job]
	if !ok || j.State != JobIdle {
		return
	}
	if s.params.ChronicFailureThreshold > 0 &&
		s.machineFailures[m.Machine].count >= s.params.ChronicFailureThreshold &&
		!s.relaxed(j) {
		// "A complementary approach would be to enhance the schedd
		// with logic to detect and avoid hosts with chronic
		// failures."  Stay idle; the strengthened ad steers the
		// next cycle elsewhere.
		s.MatchesDeclined++
		s.advertiseJob(j)
		return
	}
	s.journalAppend(recMatch(j.ID, s.bus.Now(), m.Machine))
	s.setState(j, JobMatched)
	j.claimSeq++
	seq := j.claimSeq
	s.logEvent(j, EventMatched, "machine %s", m.Machine)
	s.withdrawJob(j)
	jobAd := j.Ad
	if !s.fast {
		jobAd = j.Ad.Copy()
	}
	s.send(m.Machine, kindClaimRequest, claimRequestMsg{
		Job:    j.ID,
		Schedd: s.name,
		JobAd:  jobAd,
	})
	// Claim timeout: a startd that never answers — dead, partitioned
	// — must not strand the job in the matched state.  The silence
	// is discovered by time, not by a message (Section 5).
	if s.params.ClaimTimeout > 0 {
		epoch := s.epoch
		s.bus.After(s.params.ClaimTimeout, func() {
			// The epoch check disarms timers that straddled a crash:
			// after recovery the queue holds rebuilt Job values, and a
			// pre-crash closure's pointer no longer speaks for them.
			if s.epoch == epoch && j.State == JobMatched && j.claimSeq == seq {
				s.journalAppend(recEvent("claim-timeout", j.ID, s.bus.Now()))
				s.ClaimsFailed++
				s.setState(j, JobIdle)
				s.logEvent(j, EventClaimTimeout, "no reply from %s within %v",
					m.Machine, s.params.ClaimTimeout)
				s.advertiseJob(j)
			}
		})
	}
}

// receiveClaim activates a granted claim by spawning the shadow; the
// sender's name identifies the machine.
func (s *Schedd) receiveClaim(from string, r claimReplyMsg) {
	j, ok := s.jobs[r.Job]
	if !ok || j.State != JobMatched {
		return
	}
	j.claimSeq++ // the reply arrived; disarm the claim timeout
	if !r.Granted {
		s.journalAppend(recEvent("claim-denied", j.ID, s.bus.Now()))
		s.ClaimsFailed++
		s.setState(j, JobIdle)
		s.logEvent(j, EventClaimDenied, "%s: %s", from, r.Reason)
		s.advertiseJob(j)
		return
	}
	s.journalAppend(recExec(j.ID, s.bus.Now(), from))
	s.setState(j, JobRunning)
	j.avoidanceRelaxed = false // the next idle spell re-arms avoidance
	s.resetFlock(j)            // every attempt restarts the job at home
	s.logEvent(j, EventExecuting, "machine %s", from)
	j.Attempts = append(j.Attempts, Attempt{
		Machine: from,
		Start:   s.bus.Now(),
	})
	s.shadowSeq++
	shadowName := fmt.Sprintf("shadow:%s:%d", s.name, s.shadowSeq)
	s.shadows[j.ID] = newShadow(s.bus, s.params, shadowName, s.name, j, s.SubmitFS, from)
	s.send(from, kindActivate, activateMsg{Job: j.ID, Shadow: shadowName})
}

// finalError derives the error the schedd disposes of from a final
// report, in the precedence order of the live protocol.
func finalError(f jobFinalMsg) error {
	switch {
	case f.Evicted && f.Preempted:
		// Preemption is policy too: a higher-Rank job displaced this
		// one.  The condition invalidates the claim and nothing wider —
		// remote-resource scope, requeue, no blame.
		return scope.New(scope.ScopeRemoteResource, "Preempted",
			"a higher-Rank job preempted the claim on %s", f.Machine)
	case f.Evicted:
		// Eviction is policy, not error: the owner reclaimed the
		// machine.  Requeue with no blame attached.
		return scope.New(scope.ScopeRemoteResource, "Evicted",
			"the machine owner reclaimed %s", f.Machine)
	case f.FetchError != nil:
		return f.FetchError
	case f.LostContact != nil:
		return f.LostContact
	default:
		return f.Reported.Err()
	}
}

// applyFinal applies the queue mutations of a final report: the
// attempt closure, the checkpoint, the disposition, the blame table,
// and the user report.  It is shared by the live handler and journal
// replay, so it must not touch the bus, the tracer, or the per-job
// event log — replay regenerates state, not telemetry.  A requeue
// disposition leaves the job in JobRunning: the live path schedules
// the requeue backoff, and replay's recovery normalization requeues.
func (s *Schedd) applyFinal(j *Job, f jobFinalMsg, err error, now sim.Time) scope.Disposition {
	att := j.LastAttempt()
	if att != nil {
		att.End = now
		att.Reported = f.Reported
		att.True = f.True
		att.CPU = f.CPU
		att.FetchError = f.FetchError
		att.LostContact = f.LostContact
		att.Evicted = f.Evicted
		att.Preempted = f.Preempted
	}

	if f.CheckpointCPU > j.CheckpointCPU {
		j.CheckpointCPU = f.CheckpointCPU
	}

	disp := scope.DisposeError(err)
	switch disp {
	case scope.DispositionComplete:
		s.setState(j, JobCompleted)
		j.Finished = now
		if _, ok := s.machineFailures[f.Machine]; ok {
			delete(s.machineFailures, f.Machine)
			s.avoidedDirty = true
		}
		leak := false
		if trueErr := f.True.Err(); trueErr != nil &&
			scope.ScopeOf(trueErr) > scope.ScopeProgram {
			leak = true
		}
		s.Reports = append(s.Reports, UserReport{
			Job:            j.ID,
			Disposition:    disp,
			Result:         f.Reported,
			IncidentalLeak: leak,
		})

	case scope.DispositionUnexecutable:
		s.setState(j, JobUnexecutable)
		j.Finished = now
		j.FinalErr = err
		s.Reports = append(s.Reports, UserReport{
			Job:         j.ID,
			Disposition: disp,
			Err:         err,
		})

	default: // requeue, possibly hardened into a hold
		s.Requeues++
		// Blame the machine for its own failures — including going
		// silent — but not for submit-side fetch problems or for its
		// owner's legitimate return.
		if f.FetchError == nil && !f.Evicted && f.Machine != "" {
			rec := s.machineFailures[f.Machine]
			rec.count++
			rec.last = now
			s.machineFailures[f.Machine] = rec
			s.avoidedDirty = true
		}
		if f.Hold || len(j.Attempts) >= s.params.MaxAttempts {
			s.setState(j, JobHeld)
			j.Finished = now
			if f.Hold {
				// The shadow already escalated; its error names the
				// exhausted execution environment.
				j.FinalErr = err
			} else {
				j.FinalErr = holdErr(err)
			}
			s.Reports = append(s.Reports, UserReport{
				Job:         j.ID,
				Disposition: scope.DispositionHold,
				Err:         j.FinalErr,
			})
		}
	}
	return disp
}

// handleFinal applies the schedd's last-line-of-defense policy.
func (s *Schedd) handleFinal(f jobFinalMsg) {
	j, ok := s.jobs[f.Job]
	if !ok || j.State != JobRunning {
		return
	}
	now := s.bus.Now()
	s.journalAppend(recFinal(f, now))
	delete(s.shadows, f.Job) // the shadow retires with its report

	err := finalError(f)
	if err != nil && s.tr.Enabled() {
		// The schedd is the last hop: record the error as it arrived
		// before disposing of it.
		s.tr.Emit(errorEvent(int64(now), s.name, j.ID, err))
	}

	disp := s.applyFinal(j, f, err, now)
	switch disp {
	case scope.DispositionComplete:
		s.tr.Count("schedd.disposition.complete", 1)
		if s.tr.Enabled() {
			s.tr.Emit(s.dispositionEvent(j, "complete", err))
			s.tr.Observe("job.turnaround_ns", int64(j.Finished.Sub(j.Submitted)))
		}
		s.logEvent(j, EventCompleted, "%s on %s", f.Reported.Status, f.Machine)

	case scope.DispositionUnexecutable:
		s.tr.Count("schedd.disposition.unexecutable", 1)
		if s.tr.Enabled() {
			s.tr.Emit(s.dispositionEvent(j, "unexecutable", err))
		}
		s.logEvent(j, EventUnexecutable, "%v", err)

	default: // requeue
		s.tr.Count("schedd.requeues", 1)
		switch {
		case f.Evicted && f.Preempted:
			s.logEvent(j, EventPreempted, "displaced from %s by a higher-Rank job (checkpoint %v)",
				f.Machine, j.CheckpointCPU)
		case f.Evicted:
			s.logEvent(j, EventEvicted, "owner reclaimed %s (checkpoint %v)",
				f.Machine, j.CheckpointCPU)
		case f.FetchError != nil:
			s.logEvent(j, EventFetchFailed, "%v", err)
		case f.LostContact != nil:
			s.logEvent(j, EventLostContact, "%v", err)
		default:
			s.logEvent(j, EventRequeued, "%s scope error at %s",
				scope.ScopeOf(err), f.Machine)
		}
		if j.State == JobHeld {
			s.tr.Count("schedd.disposition.hold", 1)
			if s.tr.Enabled() {
				s.tr.Emit(s.dispositionEvent(j, "hold", j.FinalErr))
			}
			s.logEvent(j, EventHeld, "%v", j.FinalErr)
			return
		}
		if s.tr.Enabled() {
			s.tr.Emit(s.dispositionEvent(j, "requeue", err))
		}
		// Log and attempt to execute the program at a new site.  The
		// epoch check keeps a pre-crash backoff from resurrecting a
		// stale Job value after recovery rebuilt the queue.
		epoch := s.epoch
		s.bus.After(s.params.RequeueBackoff, func() {
			if s.epoch == epoch && j.State == JobRunning {
				s.setState(j, JobIdle)
				s.advertiseJob(j)
			}
		})
	}
}

// dispositionEvent records the schedd's final decision on an error,
// closing that error's span.  Only call it behind tr.Enabled.
func (s *Schedd) dispositionEvent(j *Job, disp string, err error) obs.Event {
	ev := obs.Event{
		T:    int64(s.bus.Now()),
		Comp: s.name,
		Kind: obs.KindDisposition,
		Job:  int64(j.ID),
		Code: disp,
	}
	if se, ok := scope.AsError(err); ok {
		ev.Scope = se.Scope.String()
	}
	return ev
}

// FailureCount exposes the chronic-failure table, for tests.
func (s *Schedd) FailureCount(machine string) int { return s.machineFailures[machine].count }

// FailureTableSize exposes how many machines the chronic-failure
// table currently remembers, for the memory-bound regression test.
func (s *Schedd) FailureTableSize() int { return len(s.machineFailures) }
