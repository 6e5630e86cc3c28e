package daemon

import (
	"cmp"
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

// Tally folds jobs into the counts a pool summary reports.  A schedd
// keeps one for its retired jobs, folded once as each retires, and
// Schedd.Tally adds the live queue to it.
type Tally struct {
	Jobs, Completed, Unexecutable, Held, Unfinished int
	// IncidentalLeaks counts the reports that leaked an environmental
	// condition as a program result — the postmortems the paper's
	// users were forced into (Section 2.3).
	IncidentalLeaks int
	Attempts        int
	FetchFailures   int
	// LostContacts counts attempts whose execution site went silent
	// (machine crash discovered by the shadow's result timeout).
	LostContacts int
	// Evictions counts attempts ended by a machine owner's return.
	Evictions int
	// Goodput is CPU consumed by attempts that yielded a program
	// result; Badput is the occupancy of attempts that did not.
	Goodput, Badput time.Duration
	// TurnaroundTotal sums the queue residency of completed jobs.
	TurnaroundTotal time.Duration
}

// Merge adds another tally's counts to t.
func (t *Tally) Merge(o Tally) {
	t.Jobs += o.Jobs
	t.Completed += o.Completed
	t.Unexecutable += o.Unexecutable
	t.Held += o.Held
	t.Unfinished += o.Unfinished
	t.IncidentalLeaks += o.IncidentalLeaks
	t.Attempts += o.Attempts
	t.FetchFailures += o.FetchFailures
	t.LostContacts += o.LostContacts
	t.Evictions += o.Evictions
	t.Goodput += o.Goodput
	t.Badput += o.Badput
	t.TurnaroundTotal += o.TurnaroundTotal
}

// Add folds one job and its attempts.  It reads attempts in place and
// sorts a result by scope without building its error: a monitor runs
// it over the unfinished jobs once per pump.
func (t *Tally) Add(j *Job) { t.fold(j, 1) }

// fold adds n times one job's share: n is 1 to fold the job in, -1 to
// take it out again.
func (t *Tally) fold(j *Job, n int) {
	d := time.Duration(n)
	t.Jobs += n
	switch j.State {
	case JobCompleted:
		t.Completed += n
		t.TurnaroundTotal += d * j.Finished.Sub(j.Submitted)
	case JobUnexecutable:
		t.Unexecutable += n
	case JobHeld:
		t.Held += n
	default:
		t.Unfinished += n
	}
	for i := range j.Attempts {
		att := &j.Attempts[i]
		t.Attempts += n
		if att.FetchError != nil {
			t.FetchFailures += n
			continue
		}
		if att.LostContact != nil {
			t.LostContacts += n
			continue
		}
		if att.Evicted {
			// The owner's return ends the attempt; whether the
			// occupancy was wasted depends on the universe
			// (checkpointing preserves it), so it is reported
			// separately rather than as badput.
			t.Evictions += n
			continue
		}
		if sc := att.True.ErrScope(); sc == scope.ScopeNone || sc == scope.ScopeProgram {
			t.Goodput += d * att.CPU
		} else {
			// A failed attempt wastes the machine for its whole
			// occupancy — claim, transfer, startup — not just the
			// program CPU it burned (Section 5: "continuous waste of
			// CPU and network capacity").
			t.Badput += d * att.End.Sub(att.Start)
		}
	}
}

// Tally returns what a walk of every job ever submitted would count:
// the retired tallies, the live terminal jobs folded as each became
// terminal (setState) with their leaks counted as each report was
// made, and a fold of the non-terminal live jobs.
func (s *Schedd) Tally() Tally {
	t := s.retiredTally
	t.Merge(s.doneTally)
	for _, j := range s.live {
		if !j.State.Terminal() {
			t.Add(j)
		}
	}
	return t
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

	// jobs and live hold the queue: every job not yet retired, by id
	// and in submission (id) order.  A terminal job stays live until
	// the next compaction retires it to the history (see retire).
	jobs   jobWindow[Job]
	live   []*Job
	nextID JobID
	// retired holds every job the history owns, by id; retiredTally
	// folds them once, at retirement; retiredReports are their reports
	// in completion order, decoded or kept, and histRuns the jobs of
	// the history frames Recover indexed, in completion order, while
	// their reports are not decoded yet.  See retire and readHistory.
	retired        map[JobID]retiredJob
	retiredTally   Tally
	retiredReports []UserReport
	histRuns       []JobID
	// doneTally folds the live terminal jobs, each as setState makes it
	// terminal, and counts their reports' leaks as each is made;
	// retirement moves it into retiredTally whole.
	doneTally Tally

	// idleOrder indexes the idle jobs in the order they became idle,
	// with tombstoned (nil) slots compacted lazily; each idle job holds
	// its slot (Job.idleSlot).  The refresh's rare walks — a full
	// message, an avoided list that changed — read the jobs themselves,
	// no queue lookup each, instead of the whole queue.
	idleOrder []*Job
	idleStale int
	// nonTerminal counts jobs not yet in a final state; AllTerminal —
	// polled every scheduling step — reads it in O(1).
	nonTerminal int
	// flocked lists the jobs whose request stands at a peer negotiator
	// (Job.inFlocked marks them), pruned lazily by flockedIdle: the
	// refresh rescues these and walks no other job.
	flocked []*Job

	shadowSeq int
	// shadows tracks the live shadow of each running job, so a schedd
	// crash can take its children down with it.
	shadows map[JobID]*Shadow
	// machineFailures tracks consecutive failures per machine for the
	// chronic-failure avoidance policy, with the instant of the last
	// failure so stale grudges can expire (see expireFailures).
	machineFailures map[string]failureRecord
	// avoidedCache is the sorted avoided-machine list, rebuilt only
	// when the failure table changes; avoidedVer counts the rebuilds
	// that changed it, and avoidedSent is the version the last refresh
	// carried to the negotiators.  avoidedNext is the rebuild's
	// scratch.
	avoidedCache []string
	avoidedNext  []string
	avoidedDirty bool
	avoidedVer   int
	avoidedSent  int

	// wal is the write-ahead journal: every queue transition is
	// appended before it is acted on, so the queue survives a crash
	// of this process (see scheddjournal.go).  hist is the history
	// journal retired jobs move to; it is only ever appended to.
	wal  *journal.Journal
	hist *journal.Journal
	// walAppends counts entries since the last compaction.
	walAppends int
	// Group commit: walBuf holds the records of the open batch —
	// slices of the jobs' logs, their capacity cut to their length
	// (see journalAppend) — outbox the sends deferred until those
	// records are durable, and commitArmed whether the commit event is
	// scheduled for the end of the current instant.
	walBuf      [][]byte
	outbox      []pendingSend
	commitArmed bool
	// The advertisement channels (see sendAds): incarnation names this
	// process's life — Recover starts a new one — and links holds one
	// sequence counter per negotiator this incarnation has advertised
	// to.  adSlab is the slab every job-ad message is carved from.
	incarnation uint64
	links       []adLink
	adSlab      []jobAdsMsg
	// peerScratch and flockScratch are the refresh's reused scratch.
	peerScratch  []string
	flockScratch []*Job
	// crashed marks a schedd that is down; epoch invalidates timers
	// (claim timeouts, requeue backoffs) armed before a crash.
	crashed bool
	epoch   int
	// stopAds cancels the periodic idle-job advertisement ticker.
	stopAds func()

	// reports collects what users of live jobs were shown, in
	// completion order; Reports prepends the retired ones.
	reports []UserReport

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
		SubmitFS:        vfs.New(),
		retired:         make(map[JobID]retiredJob),
		shadows:         make(map[JobID]*Shadow),
		machineFailures: make(map[string]failureRecord),
		avoidedDirty:    true,
		wal:             journal.New(),
		hist:            journal.New(),
		incarnation:     1,
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
	s.journalAppend(job, recSubmit(job.log, job))
	s.addJob(job)
	s.logEvent(job, EventSubmitted, "owner %s", job.Owner)
	s.advertiseJob(job)
	// Submission is acknowledged to the user, so its record must be
	// durable before Submit returns; an open batch is flushed now
	// rather than at the end of the instant.
	s.commitWAL(s.epoch)
	return job.ID
}

// addJob registers a job in the queue index and the derived indexes.
// Both Submit and journal replay funnel through it.
func (s *Schedd) addJob(j *Job) {
	s.jobs.put(j.ID, j)
	s.live = append(s.live, j)
	if !j.State.Terminal() {
		s.nonTerminal++
	} else {
		s.doneTally.fold(j, 1)
	}
	if j.State == JobIdle {
		s.idleAdd(j)
	}
}

// setState moves a job between states, keeping the idle index, the
// non-terminal count and the terminal jobs' tally consistent.  Every
// state transition — live or replayed — goes through here, so a job's
// attempts and Finished must be final before it is made terminal.
func (s *Schedd) setState(j *Job, st JobState) {
	if j.State == st {
		return
	}
	if j.State == JobIdle {
		s.idleRemove(j)
	}
	if st == JobIdle {
		s.idleAdd(j)
	}
	if j.State.Terminal() {
		s.doneTally.fold(j, -1)
	} else if st.Terminal() {
		s.nonTerminal--
	}
	j.State = st
	if st.Terminal() {
		s.doneTally.fold(j, 1)
	}
}

// idleAdd appends a job to the idle index.
func (s *Schedd) idleAdd(j *Job) {
	if j.idleSlot != 0 {
		return
	}
	s.idleOrder = append(s.idleOrder, j)
	j.idleSlot = len(s.idleOrder)
}

// idleRemove tombstones a job's slot; compaction happens lazily on
// the next advertisement pass, never mid-iteration.
func (s *Schedd) idleRemove(j *Job) {
	if j.idleSlot == 0 {
		return
	}
	s.idleOrder[j.idleSlot-1] = nil
	j.idleSlot = 0
	s.idleStale++
}

// compactIdle squeezes the tombstones out of the idle index.
func (s *Schedd) compactIdle() {
	live := s.idleOrder[:0]
	for _, j := range s.idleOrder {
		if j != nil {
			live = append(live, j)
			j.idleSlot = len(live)
		}
	}
	clear(s.idleOrder[len(live):])
	s.idleOrder = live
	s.idleStale = 0
}

// idleCount returns the number of idle jobs.
func (s *Schedd) idleCount() int { return len(s.idleOrder) - s.idleStale }

// Job returns the job with the given id, live or retired.
func (s *Schedd) Job(id JobID) *Job {
	if j := s.jobs.get(id); j != nil {
		return j
	}
	return s.retiredJob(id, nil)
}

// Jobs returns all jobs, live and retired, in submission order.
func (s *Schedd) Jobs() []*Job {
	out := make([]*Job, 0, len(s.retired)+len(s.live))
	rp := newReplayer(s.scratchQueue())
	for id := range s.retired {
		if j := s.retiredJob(id, rp); j != nil {
			out = append(out, j)
		}
	}
	out = append(out, s.live...)
	slices.SortFunc(out, func(a, b *Job) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Reports returns what users were shown, retired jobs included, in
// completion order.
func (s *Schedd) Reports() []UserReport {
	if len(s.histRuns) > 0 {
		s.decodeHistory()
	}
	return slices.Concat(s.retiredReports, s.reports)
}

// AllTerminal reports whether every job reached a final state.
func (s *Schedd) AllTerminal() bool { return s.nonTerminal == 0 }

// advertiseIdle is the idle refresh, the heartbeat that keeps the
// requests alive at the negotiators: a schedd that stops sending it is
// discovered by time, when they age out (Section 5).  Each negotiator
// holding any of the idle jobs gets one heartbeat, which renews every
// request it holds from this schedd and carries only the entries that
// changed without a message of their own — every job the avoidance
// constraint covers, when the avoided list changed since the last
// refresh.  So a steady round walks no jobs: only the flocked ones,
// which it rescues.
func (s *Schedd) advertiseIdle() {
	s.expireFailures()
	if s.idleStale > 0 && s.idleStale >= len(s.idleOrder)/2 {
		s.compactIdle()
	}
	idle := s.idleCount()
	if idle == 0 {
		return
	}
	flocked := s.flockedIdle()
	s.avoidedMachines() // rebuild a stale list, so its version is current
	changed := s.avoidedVer != s.avoidedSent
	s.avoidedSent = s.avoidedVer
	home := s.params.matchmaker()
	peers := s.peerScratch[:0]
	if idle > len(flocked) {
		peers = append(peers, home)
	}
	for _, j := range flocked {
		if !slices.Contains(peers, j.flockedTo) {
			peers = append(peers, j.flockedTo)
		}
	}
	for _, to := range peers {
		var ads []jobAd
		if changed {
			ads = s.idleAds(to, true)
		}
		s.sendAds(to, true, ads)
	}
	clear(peers)
	s.peerScratch = peers[:0]
	// The rescue: re-run the flock decision for each job advertised at
	// a peer.  A live peer that cannot match the job says so with a
	// no-match, and handleNoMatch escalates; a *dead* peer says nothing
	// at all, so without this periodic check a flocked job would wait
	// on a silent pool forever.  The silence is discovered by time,
	// not by a message (Section 5): maybeFlock's pacing clock fires a
	// FlockAfter after the departure, and the coordinator — whose pings
	// have meanwhile outed the dead peer — redirects or recalls the job.
	for _, j := range flocked {
		s.maybeFlock(j)
	}
	clear(flocked)
	s.flockScratch = flocked[:0]
}

// flockedIdle prunes the flocked list to the jobs still flocked and
// returns the idle ones in idle order, in a reused scratch slice.
func (s *Schedd) flockedIdle() []*Job {
	kept, idle := s.flocked[:0], s.flockScratch[:0]
	for _, j := range s.flocked {
		if j.flockedTo == "" || s.jobs.get(j.ID) != j {
			j.inFlocked = false
			continue
		}
		kept = append(kept, j)
		if j.idleSlot != 0 {
			idle = append(idle, j)
		}
	}
	clear(s.flocked[len(kept):])
	s.flocked = kept
	slices.SortFunc(idle, func(a, b *Job) int { return cmp.Compare(a.idleSlot, b.idleSlot) })
	return idle
}

// setFlock records the negotiator a job's request stands at — a peer,
// or "" for home — keeping the flocked list the refresh rescues.
func (s *Schedd) setFlock(j *Job, to string, level int, at sim.Time) {
	j.flockedTo, j.flockLevel, j.flockedAt = to, level, at
	if to != "" && !j.inFlocked {
		j.inFlocked = true
		s.flocked = append(s.flocked, j)
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
// cached between failure-table changes, and a rebuild that changes it
// bumps avoidedVer: every effective ad under avoidance changes with
// it.
func (s *Schedd) avoidedMachines() []string {
	if s.params.ChronicFailureThreshold <= 0 {
		return nil
	}
	if s.avoidedDirty {
		next := s.avoidedNext[:0]
		for machine, rec := range s.machineFailures {
			if rec.count >= s.params.ChronicFailureThreshold {
				next = append(next, machine)
			}
		}
		slices.Sort(next)
		if !slices.Equal(next, s.avoidedCache) {
			s.avoidedVer++
			s.avoidedCache, next = next, s.avoidedCache
		}
		s.avoidedNext = next[:0]
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

// adLink is the schedd's end of one advertisement channel: the
// sequence number of the last message it sent to that negotiator in
// this incarnation, and whether the next one must go full.
type adLink struct {
	to   string
	seq  uint64
	full bool
}

// link returns the channel to a negotiator, opening it — its first
// message full — on first use in the incarnation.
func (s *Schedd) link(to string) *adLink {
	for i := range s.links {
		if s.links[i].to == to {
			return &s.links[i]
		}
	}
	s.links = append(s.links, adLink{to: to, full: true})
	return &s.links[len(s.links)-1]
}

// adSlabLen is how many job-ad messages one slab holds.
const adSlabLen = 64

// sendAds sends one sequenced message of job advertisements to a
// negotiator: a heartbeat (beat) or a message of its own.  A message
// the channel owes full — its first in an incarnation, or the answer
// to a resync — carries every idle job the negotiator serves instead,
// whatever it was asked to carry, so the negotiator learns the whole
// set and forgets what it held beyond it.  Messages come from a slab
// and are never reused, so a heartbeat allocates nothing and a
// delivery, however late or duplicated, reads what was sent.
func (s *Schedd) sendAds(to string, beat bool, ads []jobAd) {
	l := s.link(to)
	full := l.full
	if full {
		l.full = false
		ads = s.idleAds(to, false)
	}
	l.seq++
	if len(s.adSlab) == cap(s.adSlab) {
		s.adSlab = make([]jobAdsMsg, 0, adSlabLen)
	}
	s.adSlab = append(s.adSlab, jobAdsMsg{Schedd: s.name, Incarnation: s.incarnation,
		Seq: l.seq, Beat: beat, Full: full, Ads: ads})
	s.send(to, kindAdvertise, &s.adSlab[len(s.adSlab)-1])
}

// sendFull answers a negotiator that missed a message with a full one.
func (s *Schedd) sendFull(to string) {
	s.link(to).full = true
	s.sendAds(to, false, nil)
}

// idleAds returns the entry of every idle job the negotiator serves,
// in idle order — what a full message carries — or, when avoiding,
// only of those the avoidance constraint covers: what changed when
// the avoided list did.
func (s *Schedd) idleAds(to string, avoiding bool) []jobAd {
	var ads []jobAd
	for _, j := range s.idleOrder {
		if j != nil && !(avoiding && s.relaxed(j)) && s.matchmakerFor(j) == to {
			ads = append(ads, s.entry(j, s.effectiveAd(j)))
		}
	}
	return ads
}

// matchmakerFor returns the negotiator currently serving the job: the
// peer it flocked to, or the home pool's own matchmaker.
func (s *Schedd) matchmakerFor(j *Job) string {
	if j.flockedTo != "" {
		return j.flockedTo
	}
	return s.params.matchmaker()
}

// entry is the job's entry in a job-ad message: ad, or nil for a
// withdrawal.
func (s *Schedd) entry(j *Job, ad *classad.Ad) jobAd {
	return jobAd{Job: j.ID, Ad: ad, Flocked: j.flockedTo != ""}
}

// advertiseJob sends the job's request to its negotiator.
func (s *Schedd) advertiseJob(j *Job) {
	s.sendAds(s.matchmakerFor(j), false, []jobAd{s.entry(j, s.effectiveAd(j))})
}

// withdrawJob removes the job's request from its current negotiator so
// stale advertisements cannot produce matches for jobs no longer idle.
func (s *Schedd) withdrawJob(j *Job) {
	s.sendAds(s.matchmakerFor(j), false, []jobAd{s.entry(j, nil)})
}

// effectiveAd returns the ad the schedd actually advertises: the
// job's own ad, strengthened — when chronic-failure avoidance is on —
// with a requirement steering the matchmaker away from machines with
// repeated failures.  Extending Requirements is the ClassAd idiom for
// schedd-side policy.  The strengthened copy is kept per job for the
// avoided list's version, so every advertisement of one list shares
// it.
func (s *Schedd) effectiveAd(j *Job) *classad.Ad {
	var avoided []string
	if !s.relaxed(j) {
		avoided = s.avoidedMachines()
	}
	if len(avoided) == 0 {
		// Nothing to strengthen.  The precompiled ad is immutable
		// from here on — evaluation only reads it — so
		// it is shared instead of copied per advertisement, and the
		// matchmaker recognizes the pointer and keeps its cluster
		// signature.
		return j.Ad
	}
	if j.avoidingAd != nil && j.avoidingVer == s.avoidedVer {
		return j.avoidingAd
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
	j.avoidingAd, j.avoidingVer = ad, s.avoidedVer
	return ad
}

// Receive implements sim.Actor.
func (s *Schedd) Receive(msg sim.Message) {
	switch body := msg.Body.(type) {
	case matchNotifyMsg:
		s.handleMatch(body)
	case noMatchMsg:
		for _, id := range body.Jobs {
			s.handleNoMatch(id)
		}
	case adResyncMsg:
		s.sendFull(msg.From)
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
	j := s.jobs.get(m.Job)
	if j == nil || j.State != JobRunning || m.CPU <= j.CheckpointCPU {
		return
	}
	s.journalAppend(j, recCkpt(j.log, j.ID, s.bus.Now(), m.CPU))
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
	j := s.jobs.get(m.Job)
	if j == nil || j.State != JobRunning {
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
func (s *Schedd) handleNoMatch(id JobID) {
	j := s.jobs.get(id)
	if j == nil || j.State != JobIdle {
		return
	}
	if !s.relaxed(j) &&
		s.params.ChronicRelaxAfter > 0 &&
		s.idleFor(j) >= s.params.ChronicRelaxAfter &&
		len(s.avoidedMachines()) > 0 {
		s.journalAppend(j, recEvent(j.log, "relax", j.ID, s.bus.Now()))
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
	j := s.jobs.get(r.Job)
	if j == nil || !j.flockPending {
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
		s.journalAppend(j, recFlock(j.log, j.ID, now, m.Level, m.Negotiator))
		s.withdrawJob(j) // from the negotiator that starved it
		s.setFlock(j, m.Negotiator, m.Level, now)
		s.FlockDepartures++
		s.tr.Count("schedd.flock.departures", 1)
		s.logEvent(j, EventFlocked, "to %s (level %d)", m.Negotiator, m.Level)
		s.advertiseJob(j)
	case FlockDeny:
		if j.flockedTo == "" {
			return // already home; the pacing clock retries later
		}
		s.journalAppend(j, recFlock(j.log, j.ID, now, 0, ""))
		s.withdrawJob(j) // from the peer that no longer serves it
		s.setFlock(j, "", 0, now)
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
	s.setFlock(j, "", 0, 0)
	j.flockPending = false
	j.flockPendingAt = 0
}

// handleMatch claims the machine the matchmaker proposed, unless the
// chronic-failure policy vetoes it.
func (s *Schedd) handleMatch(m matchNotifyMsg) {
	s.MatchesReceived++
	j := s.jobs.get(m.Job)
	if j == nil || j.State != JobIdle {
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
	s.journalAppend(j, recMachineOp(j.log, "match", j.ID, s.bus.Now(), m.Machine))
	s.setState(j, JobMatched)
	j.claimSeq++
	seq := j.claimSeq
	s.logEvent(j, EventMatched, "machine %s", m.Machine)
	s.withdrawJob(j)
	s.send(m.Machine, kindClaimRequest, claimRequestMsg{
		Job:    j.ID,
		Schedd: s.name,
		JobAd:  j.Ad,
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
				s.journalAppend(j, recEvent(j.log, "claim-timeout", j.ID, s.bus.Now()))
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
	j := s.jobs.get(r.Job)
	if j == nil || j.State != JobMatched {
		return
	}
	j.claimSeq++ // the reply arrived; disarm the claim timeout
	if !r.Granted {
		s.journalAppend(j, recEvent(j.log, "claim-denied", j.ID, s.bus.Now()))
		s.ClaimsFailed++
		s.setState(j, JobIdle)
		s.logEvent(j, EventClaimDenied, "%s: %s", from, r.Reason)
		s.advertiseJob(j)
		return
	}
	s.journalAppend(j, recMachineOp(j.log, "exec", j.ID, s.bus.Now(), from))
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

	disp := s.dispose(f, err, now)
	switch disp {
	case scope.DispositionComplete:
		j.Finished = now
		s.setState(j, JobCompleted)
		leak := false
		if trueErr := f.True.Err(); trueErr != nil &&
			scope.ScopeOf(trueErr) > scope.ScopeProgram {
			leak = true
			s.doneTally.IncidentalLeaks++
		}
		s.reports = append(s.reports, UserReport{
			Job:            j.ID,
			Disposition:    disp,
			Result:         f.Reported,
			IncidentalLeak: leak,
		})

	case scope.DispositionUnexecutable:
		j.Finished = now
		s.setState(j, JobUnexecutable)
		j.FinalErr = err
		s.reports = append(s.reports, UserReport{
			Job:         j.ID,
			Disposition: disp,
			Err:         err,
		})

	default: // requeue, possibly hardened into a hold
		if f.Hold || len(j.Attempts) >= s.params.MaxAttempts {
			j.Finished = now
			s.setState(j, JobHeld)
			if f.Hold {
				// The shadow already escalated; its error names the
				// exhausted execution environment.
				j.FinalErr = err
			} else {
				j.FinalErr = holdErr(err)
			}
			s.reports = append(s.reports, UserReport{
				Job:         j.ID,
				Disposition: scope.DispositionHold,
				Err:         j.FinalErr,
			})
		}
	}
	return disp
}

// dispose applies what a final report does to the schedd rather than
// to its job — the requeue count and the chronic-failure table — and
// returns the disposition.  Replay applies it alone for the final
// record of a job the history already holds.
func (s *Schedd) dispose(f jobFinalMsg, err error, now sim.Time) scope.Disposition {
	disp := scope.DisposeError(err)
	switch disp {
	case scope.DispositionComplete:
		if _, ok := s.machineFailures[f.Machine]; ok {
			delete(s.machineFailures, f.Machine)
			s.avoidedDirty = true
		}
	case scope.DispositionUnexecutable:
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
	}
	return disp
}

// handleFinal applies the schedd's last-line-of-defense policy.
func (s *Schedd) handleFinal(f jobFinalMsg) {
	j := s.jobs.get(f.Job)
	if j == nil || j.State != JobRunning {
		return
	}
	now := s.bus.Now()
	s.journalAppend(j, recFinal(j.log, f, now))
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
		// stale Job value after recovery rebuilt the queue.  The return
		// to idle is the one transition the journal does not carry —
		// a record there would add a commit event — but the job's log
		// does, so a snapshot replays the job idle, in the idle order
		// it holds.  A crash before the next snapshot replays the job
		// running, and recovery requeues it as it would anyway.
		epoch := s.epoch
		s.bus.After(s.params.RequeueBackoff, func() {
			if s.epoch == epoch && j.State == JobRunning {
				j.log = append(recEvent(j.log, "requeue", j.ID, s.bus.Now()), '\n')
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
