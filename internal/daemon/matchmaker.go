package daemon

import (
	"slices"
	"strings"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/sim"
)

// Matchmaker collects ClassAds from all participants and notifies
// schedds and startds of compatible partners.  Matched processes are
// then individually responsible for claiming one another — the
// matchmaker's word is advisory, exactly as in Condor.
//
// The negotiation cycle keeps every per-cycle structure
// incremental: machines live in one name-sorted list maintained on
// advertise/expire; jobs live in per-owner buckets kept in submission
// order at insert time; jobs with byte-identical ads share one
// auto-cluster, whose scan of the machine list runs once per cycle no
// matter how many jobs ride it and decides every pair with
// classad.Match alone.  A steady-state cycle (nothing matchable)
// allocates nothing.
type Matchmaker struct {
	bus    Runtime
	params Params
	name   string
	tr     obs.Tracer

	machines    map[string]*machineEntry
	machineList []*machineEntry // name-sorted; the deterministic scan order
	// absentMachines counts expired entries still occupying the map
	// and the list; when they reach half the map both are compacted in
	// one pass (see machineEntry.absent).
	absentMachines int

	// leases holds one lease per schedd, looked up once per job-ad
	// message, and with it the schedd's requests, by job id.  requests
	// counts them: the queued ones and the dormant ones a lease keeps
	// for revival (jobEntry.dormant), which dormantJobs counts.
	leases      map[string]*jobLease
	requests    int
	dormantJobs int
	ownerQueues map[string][]*jobEntry // per owner, sorted by (schedd, job)
	ownerNames  []string               // owners with non-empty queues, name-sorted
	// deadJobs counts tombstoned queue slots awaiting the per-cycle
	// compaction (see jobEntry.dead).
	deadJobs int
	// foreignJobs counts live flocked-in requests; when zero, the
	// hierarchical partition of the cycle's job list is skipped
	// entirely and a single-pool cycle is byte-identical to history.
	foreignJobs int
	// foreignScratch is reused by the per-cycle hierarchical
	// partition.
	foreignScratch []*jobEntry
	// noMatches is the cycle's open run of no-match notices (see
	// noticeRun); send closes it before any other message leaves, and
	// the cycle's end closes it.
	noMatches noticeRun

	// clusters caches per-cycle candidate scans keyed by job-ad
	// signature: jobs whose ads render identically are
	// interchangeable to matchmaking, so the pool is ranked once per
	// cluster per cycle instead of once per job (auto-clustering).
	clusters map[string]*clusterEntry

	// usage counts matches handed to each owner, the basis of the
	// fair-share ordering.
	usage map[string]int

	// fullMark stamps the entries of the full message being applied
	// (applyFull).
	fullMark uint64

	// Scratch storage reused across cycles.
	ownerScratch   []string
	jobScratch     []*jobEntry
	nameScratch    []string
	expiredScratch []*jobEntry

	// Cycles counts negotiation cycles, for metrics.
	Cycles int
	// MatchesMade counts notifications sent.
	MatchesMade int
	// AdsExpired counts machine ads dropped for silence.
	AdsExpired int
	// JobAdsExpired counts job requests dropped for silence: a live
	// schedd renews its lease every AdInterval, so these are the
	// requests of a dead schedd aging out of the pool.
	JobAdsExpired int
	// AdResyncs counts full job-ad messages asked for: each is a gap
	// found in a schedd's sequence.
	AdResyncs int
	// PrefilterSkips is always 0: the constant pre-filter it counted
	// is gone, and every pair is decided by classad.Match.  It stays
	// only because the benchmark module still reports it as
	// daemon.mm_prefilter_skips; the next change to the benchmark
	// drops both that row and this field.
	PrefilterSkips int
	// ClusterScans counts auto-cluster candidate scans: the number of
	// times a cycle actually ranked the pool.  Jobs minus scans is
	// the work auto-clustering saved.
	ClusterScans int
	// NoMatches counts no-match notifications sent for jobs
	// compatible with zero advertised machines.
	NoMatches int
	// ForeignMatches counts matches handed to flocked-in jobs — work
	// this pool did for its peers.
	ForeignMatches int
}

type machineEntry struct {
	name    string
	ad      *classad.Ad
	matched bool     // provisionally handed out this cycle
	expires sim.Time // ad lifetime; a silent machine vanishes
	// claimed marks a machine advertising in the Claimed state —
	// visible only under preemption, and only to jobs whose Rank
	// strictly beats curRank, the incumbent's Rank the startd put in
	// the ad.  Extracted once at upsert so the per-cycle scans pay a
	// field read, not an attribute evaluation.
	claimed bool
	curRank float64
	// absent marks an expired machine.  The entry stays in the sorted
	// list — scans skip it — because a machine that goes quiet while
	// running a job re-advertises on completion, and physically
	// removing and re-inserting it in a 10k-entry sorted list is
	// O(pool) memmove per transition.  When absents reach half the map,
	// one O(pool) compaction reclaims them all, so removal is O(1)
	// amortized and occupancy stays within 2x of the live pool.
	absent bool
}

// jobLease is the negotiator's end of one schedd's advertisement
// channel (jobAdsMsg) and the liveness of every request the schedd
// holds here.  A request the lease covers (jobEntry.lease) expires at
// max(last, its own ad's arrival) + JobAdLifetime, and a heartbeat
// re-arms every covered request's no-match notice by bumping round: a
// request whose notice was stamped with an older round may be told
// again.  So a heartbeat does for every request what re-sending its ad
// did, in O(1).
type jobLease struct {
	name string
	// jobs holds the schedd's requests, covered or not, by job id.
	jobs jobWindow[jobEntry]
	// incarnation and seq are the last message applied.
	incarnation, seq uint64
	// last is the arrival of the last heartbeat or full message.
	last  sim.Time
	round uint64
	// gap marks a missed message: the next heartbeat asks for a full
	// one instead of renewing the lease.  asked marks a full message
	// asked for and not yet come; a heartbeat arriving meanwhile asks
	// again, since the question or its answer may be lost.
	gap, asked bool
	// dormant lists the covered requests the negotiator itself dropped
	// — matched, or expired — which a heartbeat revives, as re-sending
	// every idle job's ad re-queued them: the schedd still advertises
	// them until it says otherwise.
	dormant []*jobEntry
}

// lease returns the schedd's lease, opening it on first sight.
func (m *Matchmaker) lease(schedd string) *jobLease {
	l, ok := m.leases[schedd]
	if !ok {
		l = &jobLease{name: schedd, round: 1}
		m.leases[schedd] = l
	}
	return l
}

type jobEntry struct {
	schedd string
	job    JobID
	ad     *classad.Ad
	owner  string
	// lease is the schedd's lease, which covers the request while the
	// schedd advertises the job here as far as the negotiator knows.
	// A full message that leaves the request out makes it stale: it
	// then keeps the refresh instant and the no-match state it had, and
	// ages out on its own.
	lease *jobLease
	stale bool
	// at is the arrival of the job's own ad; a stale request's last
	// refresh.  A schedd that stops refreshing (it crashed) has
	// its requests age out rather than matching machines to a
	// submitter that no longer exists (see expired).
	at sim.Time
	// noMatch limits no-match notifications to one per advertisement,
	// keeping a steady-state cycle allocation-free: a covered request
	// was told in the lease round noMatch holds (0: not told since its
	// ad), a stale one was told if it is non-zero.  Every ad and every
	// heartbeat re-arms it.
	noMatch uint64
	// mark is the fullMark of the last full message that carried the
	// job.
	mark uint64
	// dormant marks a covered request the negotiator dropped itself,
	// waiting in its lease for the next heartbeat.
	dormant bool
	// queued marks an entry standing in its owner queue, live or as a
	// tombstone the next compaction reclaims.
	queued bool
	// sig is the rendered ad, the auto-cluster key.  Computed lazily
	// on the job's first cycle and invalidated when the ad content
	// changes.
	sig string
	// dead marks a withdrawn request still occupying its slot in the
	// owner queue.  Removal tombstones instead of deleting because a
	// single-owner workload keeps thousands of jobs in one sorted
	// queue, and eager slices.Delete is O(queue) memmove per match;
	// the negotiation cycle compacts every queue once before using it,
	// so scans never observe a tombstone.
	dead bool
	// foreign marks a flocked-in request from a peer pool's schedd.
	// Hierarchical negotiation serves these strictly after the home
	// pool's own jobs: a pool shares its idle machines, never its
	// users' priority.
	foreign bool
}

// clusterEntry caches one auto-cluster's candidate scan for the
// current negotiation cycle.  Jobs whose ads render to the same
// signature see the same candidates, the same Requirements verdicts,
// and the same Rank values, so the cycle evaluates the pool once per
// cluster and hands successive members successive machines from the
// ranked list — HTCondor's auto-clustering.  The pick sequence is
// exactly the per-job scan's: the scan keeps the first candidate, in
// name order, attaining the maximum rank, which is the head of a
// stable rank-descending sort; marking it matched makes the next
// list element the next job's pick.
type clusterEntry struct {
	cycle      int  // negotiation cycle the scan below belongs to
	next       int  // first ranked entry not yet known-matched
	compatible bool // some advertised machine, matched or not, satisfies the ad
	ranked     []rankedCandidate
}

type rankedCandidate struct {
	entry *machineEntry
	rank  float64
}

// machineClaimState reads the advertised claim state: whether the
// machine is claimed and, if so, the incumbent's Rank.  Historically
// only unclaimed machines advertised, so entries without the
// attributes are simply unclaimed.
func machineClaimState(ad *classad.Ad) (bool, float64) {
	st, _ := ad.EvalAttr("State", nil).StringValue()
	if st != "Claimed" {
		return false, 0
	}
	r, _ := ad.EvalAttr("CurrentRank", nil).RealValue()
	return true, r
}

// preemptable reports whether a job offering rank r may take a
// machine: an unclaimed machine always, a claimed one only under
// preemption and only by strictly outranking the incumbent.
func (m *Matchmaker) preemptable(e *machineEntry, r float64) bool {
	if !e.claimed {
		return true
	}
	return m.params.Preemption && r > e.curRank
}

// jobOwner extracts the requesting user from the job ad, falling back
// to the schedd name so anonymous requests still get a fair-share
// bucket.  Evaluated once at advertise time.
func jobOwner(schedd string, ad *classad.Ad) string {
	if v := ad.EvalAttr("Owner", nil); v.Type() == classad.StringType {
		s, _ := v.StringValue()
		return s
	}
	return schedd
}

// NewMatchmaker creates and registers the matchmaker on the bus and
// starts its negotiation cycle.
func NewMatchmaker(bus Runtime, params Params) *Matchmaker {
	name := params.matchmaker()
	bus = affinity(bus, name)
	m := &Matchmaker{
		bus:         bus,
		params:      params,
		name:        name,
		tr:          params.tracer(),
		machines:    make(map[string]*machineEntry),
		leases:      make(map[string]*jobLease),
		ownerQueues: make(map[string][]*jobEntry),
		clusters:    make(map[string]*clusterEntry),
		usage:       make(map[string]int),
	}
	m.noMatches.send = m.sendNoMatches
	bus.Register(name, m)
	bus.Every(params.NegotiationInterval, m.negotiate)
	return m
}

// Name returns the negotiator's actor name.
func (m *Matchmaker) Name() string { return m.name }

// Receive implements sim.Actor.
func (m *Matchmaker) Receive(msg sim.Message) {
	switch body := msg.Body.(type) {
	case advertiseMsg:
		m.AdvertiseMachine(body.Name, body.Ad)
	case *jobAdsMsg:
		m.receiveJobAds(body)
	case flockPingMsg:
		// A peer pool's flock coordinator probes for liveness; answer
		// by name so a partitioned negotiator goes silent rather than
		// wrong.
		m.send(msg.From, kindFlockPong, flockPongMsg{From: m.name, Seq: body.Seq})
	}
}

// receiveJobAds applies one sequenced job-ad message (jobAdsMsg).  A
// message from an older incarnation, or numbered at or below the last
// one applied, is stale or a duplicate and is ignored.  A full message
// always applies.  Any other message past a gap is applied as usual,
// but the gap is remembered, and the next heartbeat asks the schedd
// for a full message instead of renewing the lease: a lost heartbeat
// cost the requests one refresh, as a lost run of every idle job's ad
// did, and the full message answers where that run's successor would
// have.
func (m *Matchmaker) receiveJobAds(msg *jobAdsMsg) {
	l := m.lease(msg.Schedd)
	if msg.Incarnation < l.incarnation || msg.Incarnation == l.incarnation && msg.Seq <= l.seq {
		return
	}
	if msg.Full {
		m.applyFull(l, msg)
		return
	}
	if msg.Incarnation != l.incarnation || msg.Seq != l.seq+1 {
		l.gap = true
	}
	l.incarnation, l.seq = msg.Incarnation, msg.Seq
	if msg.Beat {
		if l.gap || l.asked {
			l.gap, l.asked = false, true
			m.AdResyncs++
			m.tr.Count("matchmaker.ad_resyncs", 1)
			m.send(msg.Schedd, kindAdResync, adResyncMsg{})
			return
		}
		l.last = m.bus.Now()
		l.round++
		for _, j := range l.dormant {
			if j.dormant {
				m.requeue(j)
			}
		}
		clear(l.dormant)
		l.dormant = l.dormant[:0]
	}
	m.applyAds(l, msg.Ads)
}

// applyAds applies a message's entries in order.
func (m *Matchmaker) applyAds(l *jobLease, ads []jobAd) {
	for _, e := range ads {
		if e.Ad == nil {
			m.removeJob(l.jobs.get(e.Job)) // the schedd withdraws the request
			continue
		}
		m.upsertJob(l, e.Job, e.Ad, e.Flocked)
	}
}

// applyFull applies a full message: its entries are everything the
// schedd advertises here, so every other request of the schedd goes
// stale — kept, as a request whose withdrawal was lost stood until it
// aged out — and every dormant one the message leaves out is gone.
func (m *Matchmaker) applyFull(l *jobLease, msg *jobAdsMsg) {
	now := m.bus.Now()
	l.incarnation, l.seq, l.gap, l.asked = msg.Incarnation, msg.Seq, false, false
	m.fullMark++
	m.applyAds(l, msg.Ads)
	for _, e := range msg.Ads {
		if j := l.jobs.get(e.Job); j != nil && e.Ad != nil {
			j.mark = m.fullMark
		}
	}
	for _, o := range m.ownerNames {
		for _, j := range m.ownerQueues[o] {
			if !j.dead && !j.stale && j.lease == l && j.mark != m.fullMark {
				j.at = max(j.at, l.last)
				j.noMatch = b2u(j.noMatch == l.round)
				j.stale = true
			}
		}
	}
	for _, j := range l.dormant {
		if j.dormant && j.mark != m.fullMark {
			m.removeJob(j)
		}
	}
	clear(l.dormant)
	l.dormant = l.dormant[:0]
	l.last = now
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// send closes the open no-match run, which must arrive first, and
// sends one message.
func (m *Matchmaker) send(to, kind string, body any) {
	m.noMatches.flush()
	m.bus.Send(m.name, to, kind, body)
}

// sendNoMatches sends one run of no-match notices to a schedd.
func (m *Matchmaker) sendNoMatches(schedd string, jobs []JobID) {
	m.bus.Send(m.name, schedd, kindNoMatch, noMatchMsg{Jobs: jobs})
}

// upsertMachine installs or refreshes a machine ad, keeping the
// sorted list current.  A re-advertise clears the provisional matched
// flag: the machine is visible again.
func (m *Matchmaker) upsertMachine(name string, ad *classad.Ad, expires sim.Time) {
	if entry, ok := m.machines[name]; ok {
		entry.expires = expires
		entry.matched = false
		if entry.absent {
			// An expired machine came back before its slot was
			// reclaimed: revive in place, no list motion.
			entry.absent = false
			m.absentMachines--
		}
		if entry.ad == ad {
			// The startd re-sent the identical ad object (they cache
			// theirs per state); nothing to re-read.
			return
		}
		ad.Precompile()
		entry.ad = ad
		entry.claimed, entry.curRank = machineClaimState(ad)
		return
	}
	ad.Precompile()
	entry := &machineEntry{name: name, ad: ad, expires: expires}
	entry.claimed, entry.curRank = machineClaimState(ad)
	m.machines[name] = entry
	pos, _ := slices.BinarySearchFunc(m.machineList, name, func(e *machineEntry, name string) int {
		return strings.Compare(e.name, name)
	})
	m.machineList = slices.Insert(m.machineList, pos, entry)
}

// removeMachine drops a machine: the entry is tombstoned where it
// stands and the map and sorted list are compacted in one pass once
// tombstones reach half the map.  Scans skip absent entries, so
// the machine is invisible immediately; only the memory lingers.
func (m *Matchmaker) removeMachine(name string) {
	entry, ok := m.machines[name]
	if !ok || entry.absent {
		return
	}
	entry.absent = true
	m.absentMachines++
	if 2*m.absentMachines >= len(m.machines) {
		m.compactMachines()
	}
}

// compactMachines reclaims every absent entry, filtering the sorted
// list in place.
func (m *Matchmaker) compactMachines() {
	kept := m.machineList[:0]
	for _, e := range m.machineList {
		if e.absent {
			delete(m.machines, e.name)
			continue
		}
		kept = append(kept, e)
	}
	clear(m.machineList[len(kept):]) // release the reclaimed entries
	m.machineList = kept
	m.absentMachines = 0
}

// compareJobEntries orders jobs within an owner bucket by submission
// identity.
func compareJobEntries(a, b *jobEntry) int {
	if c := strings.Compare(a.schedd, b.schedd); c != 0 {
		return c
	}
	switch {
	case a.job < b.job:
		return -1
	case a.job > b.job:
		return 1
	}
	return 0
}

// upsertJob installs or refreshes a job request of the lease's schedd
// in its owner bucket: the lease covers it, and its no-match notice is
// re-armed.
func (m *Matchmaker) upsertJob(l *jobLease, job JobID, ad *classad.Ad, foreign bool) {
	if old := l.jobs.get(job); old != nil {
		if old.ad == ad || jobOwner(l.name, ad) == old.owner {
			if old.dormant {
				m.requeue(old)
			}
			old.stale, old.at, old.noMatch = false, m.bus.Now(), 0
			if old.ad != ad {
				old.ad = ad
				old.sig = "" // content changed: re-cluster lazily
			}
			return
		}
		m.removeJob(old) // the owner changed: the request moves bucket
	}
	j := &jobEntry{schedd: l.name, job: job, ad: ad, owner: jobOwner(l.name, ad),
		lease: l, at: m.bus.Now(), foreign: foreign}
	l.jobs.put(job, j)
	m.requests++
	m.enqueue(j)
}

// enqueue puts a request into its owner's queue, in submission order.
func (m *Matchmaker) enqueue(j *jobEntry) {
	if j.foreign {
		m.foreignJobs++
	}
	if j.queued {
		// Revived before the compaction reclaimed its slot (a
		// heartbeat reviving a match the schedd has not withdrawn yet):
		// the tombstone is the entry itself.
		j.dead = false
		m.deadJobs--
		return
	}
	j.queued = true
	q := m.ownerQueues[j.owner]
	if len(q) == 0 {
		pos, _ := slices.BinarySearch(m.ownerNames, j.owner)
		m.ownerNames = slices.Insert(m.ownerNames, pos, j.owner)
	}
	j.dead = false
	if n := len(q); n > 0 && compareJobEntries(q[n-1], j) < 0 {
		// A new job sorts last, as submissions arrive in id order.
		m.ownerQueues[j.owner] = append(q, j)
		return
	}
	pos, found := slices.BinarySearchFunc(q, j, compareJobEntries)
	if found {
		// The same job left the queue and came back within one cycle
		// (a failed claim, a revival); its tombstone — this entry's or
		// an earlier one's — sits exactly where the entry sorts, so
		// revive the slot instead of shifting the queue.  A live entry
		// can never be found here: it would be in the lease.
		q[pos].queued = false
		q[pos] = j
		m.deadJobs--
		return
	}
	m.ownerQueues[j.owner] = slices.Insert(q, pos, j)
}

// requeue revives a dormant request.
func (m *Matchmaker) requeue(j *jobEntry) {
	j.dormant = false
	m.dormantJobs--
	m.enqueue(j)
}

// dequeue tombstones a queued request in its slot: scans skip it, and
// the next cycle's compaction reclaims it along with any owner bucket
// it leaves empty.
func (m *Matchmaker) dequeue(j *jobEntry) {
	j.dead = true
	m.deadJobs++
	if j.foreign {
		m.foreignJobs--
	}
}

// removeJob withdraws a job request, queued or dormant; nil is none.
func (m *Matchmaker) removeJob(j *jobEntry) {
	if j == nil {
		return
	}
	j.lease.jobs.drop(j.job)
	m.requests--
	if j.dormant {
		j.dormant = false
		m.dormantJobs--
		return
	}
	m.dequeue(j)
}

// dropJob takes a request out of the queue on the negotiator's own
// account — matched, or expired.  A covered request goes dormant in
// its lease, since its schedd still advertises it; a stale one is
// gone.
func (m *Matchmaker) dropJob(j *jobEntry) {
	if j.stale {
		m.removeJob(j)
		return
	}
	m.dequeue(j)
	j.dormant = true
	m.dormantJobs++
	j.lease.dormant = append(j.lease.dormant, j)
}

// queuedJobs is the number of queued requests.
func (m *Matchmaker) queuedJobs() int { return m.requests - m.dormantJobs }

// noMatchSent reports whether the request was told of no match since
// its last ad or its lease's last heartbeat.
func (j *jobEntry) noMatchSent() bool {
	if j.stale {
		return j.noMatch != 0
	}
	return j.noMatch == j.lease.round
}

// markNoMatch records that the request was told of no match.
func (j *jobEntry) markNoMatch() {
	j.noMatch = 1
	if !j.stale {
		j.noMatch = j.lease.round
	}
}

// expired reports whether the request outlived its lifetime, counted
// from its own ad or its lease's last heartbeat, whichever is later.
func (j *jobEntry) expired(now sim.Time, lifetime time.Duration) bool {
	last := j.at
	if !j.stale {
		last = max(last, j.lease.last)
	}
	return now > last.Add(lifetime)
}

// compactJobQueues filters every owner queue in place, dropping
// tombstones and the owners they empty.  Runs once per negotiation
// cycle, before the queues are read, so the round-robin and the
// expiry scan only ever see live entries in their original order.
func (m *Matchmaker) compactJobQueues() {
	if m.deadJobs == 0 {
		return
	}
	kept := m.ownerNames[:0]
	for _, o := range m.ownerNames {
		q := m.ownerQueues[o]
		live := q[:0]
		for _, j := range q {
			if !j.dead {
				live = append(live, j)
			} else {
				j.queued = false
			}
		}
		for i := len(live); i < len(q); i++ {
			q[i] = nil // release the tombstoned entries
		}
		if len(live) == 0 {
			delete(m.ownerQueues, o)
			continue
		}
		m.ownerQueues[o] = live
		kept = append(kept, o)
	}
	m.ownerNames = kept
	m.deadJobs = 0
}

// negotiate runs one matchmaking cycle: for each waiting job, in a
// deterministic order, find the best compatible unclaimed machine and
// notify the schedd.
func (m *Matchmaker) negotiate() {
	m.Cycles++
	m.tr.Count("matchmaker.cycles", 1)
	m.expireMachines()
	m.expireJobs()
	m.compactJobQueues()

	// Fair share: owners are served in ascending order of accumulated
	// matches, interleaved round-robin, so neither a busy submit
	// point nor a greedy user can starve the rest.  Within an owner,
	// jobs keep submission order — the buckets are maintained sorted
	// at insert time, so the cycle only re-orders the (few) owners.
	owners := append(m.ownerScratch[:0], m.ownerNames...)
	slices.SortFunc(owners, func(a, b string) int {
		if m.usage[a] != m.usage[b] {
			return m.usage[a] - m.usage[b]
		}
		return strings.Compare(a, b)
	})
	m.ownerScratch = owners

	jobs := m.jobScratch[:0]
	for round := 0; len(jobs) < m.queuedJobs(); round++ {
		for _, o := range owners {
			if q := m.ownerQueues[o]; round < len(q) {
				jobs = append(jobs, q[round])
			}
		}
	}
	m.jobScratch = jobs

	// Hierarchical negotiation: the fair-share interleave above is
	// stably partitioned so every home-pool job is served before any
	// flocked-in foreign one — a pool donates idle machines to its
	// peers, never its own users' priority.  With no foreign jobs the
	// partition is skipped and the cycle is byte-identical to the
	// single-pool scheduler.
	if m.foreignJobs > 0 {
		foreign := m.foreignScratch[:0]
		local := jobs[:0]
		for _, j := range jobs {
			if j.foreign {
				foreign = append(foreign, j)
			} else {
				local = append(local, j)
			}
		}
		m.foreignScratch = foreign
		jobs = append(local, foreign...)
	}

	for _, j := range jobs {
		best := m.findBest(j)
		if best == nil {
			if !j.noMatchSent() && !m.anyCompatible(j) {
				// Not outbid — unmatchable: no ad in the pool
				// satisfies the job at all.  Tell the schedd, which
				// alone knows whether its own avoidance constraint
				// caused this.  One notification per advertisement.
				j.markNoMatch()
				m.NoMatches++
				m.tr.Count("matchmaker.no_matches", 1)
				m.noMatches.add(j.schedd, j.job)
			}
			continue
		}
		best.matched = true
		m.MatchesMade++
		if j.foreign {
			m.ForeignMatches++
		}
		m.tr.Count("matchmaker.matches", 1)
		m.usage[j.owner]++
		m.dropJob(j)
		// The machine ad travels by reference: ads are immutable once
		// advertised (a startd re-advertises a fresh object on every
		// state change), so the claim protocol can read it without a
		// per-match deep copy.
		m.send(j.schedd, kindMatchNotify, matchNotifyMsg{
			Job:       j.job,
			Machine:   best.name,
			MachineAd: best.ad,
		})
	}
	m.noMatches.flush()
	// Provisional matches expire when the startd re-advertises; a
	// machine that was matched but never claimed becomes visible
	// again on its next ad.  Cycle cost is measured on the wall clock
	// outside the deterministic path (the benchmark's
	// daemon.probe_negotiate_ms_10k, BenchmarkNegotiateWave); in here
	// only virtual-clock facts are observed.
	if m.tr.Enabled() {
		m.tr.Observe("matchmaker.cycle_jobs", int64(len(jobs)))
	}
}

// expireMachines drops ads from machines that have gone silent.  At
// the matchmaker, a machine's prolonged silence is the point where a
// network-scope condition has aged into machine scope (Section 5:
// "time becomes a factor in error propagation").
func (m *Matchmaker) expireMachines() {
	now := m.bus.Now()
	expired := m.nameScratch[:0]
	for _, e := range m.machineList {
		if !e.absent && now > e.expires {
			expired = append(expired, e.name)
		}
	}
	for _, name := range expired {
		m.removeMachine(name)
		m.AdsExpired++
	}
	m.nameScratch = expired[:0]
}

// adLifetime resolves a configured ad lifetime (MachineAdLifetime or
// JobAdLifetime), falling back to 150 s when it is unset.
func adLifetime(configured time.Duration) time.Duration {
	if configured > 0 {
		return configured
	}
	return 150 * time.Second
}

// expireJobs drops requests whose schedd has stopped refreshing them.
// The iteration follows the deterministic owner/queue order, never the
// jobs map.
func (m *Matchmaker) expireJobs() {
	now, lifetime := m.bus.Now(), adLifetime(m.params.JobAdLifetime)
	expired := m.expiredScratch[:0]
	for _, o := range m.ownerNames {
		for _, j := range m.ownerQueues[o] {
			if !j.dead && j.expired(now, lifetime) {
				expired = append(expired, j)
			}
		}
	}
	for _, j := range expired {
		m.dropJob(j)
		m.JobAdsExpired++
	}
	clear(expired)
	m.expiredScratch = expired[:0]
}

// findBest returns the best unmatched machine for the job, or nil.
// It resolves the job's auto-cluster — one pass over the machine list,
// Requirements and Rank evaluated once per cluster — and pops the best
// machine not yet handed out this cycle.  The full scan it must agree
// with is the test oracle refFindBest (matchmaker_ref_test.go).
func (m *Matchmaker) findBest(j *jobEntry) *machineEntry {
	c := m.cluster(j)
	for c.next < len(c.ranked) {
		if entry := c.ranked[c.next].entry; !entry.matched {
			return entry
		}
		c.next++
	}
	return nil
}

// cluster returns the job's auto-cluster scan state, building it on
// the cluster's first touch in a cycle.  Rebuilds reuse the ranked
// slice, so a steady-state cycle stays allocation-free.
func (m *Matchmaker) cluster(j *jobEntry) *clusterEntry {
	if j.sig == "" {
		j.sig = j.ad.String()
	}
	c, ok := m.clusters[j.sig]
	if !ok {
		if len(m.clusters) >= 2*m.queuedJobs()+16 {
			// Mostly signatures of long-departed jobs: reset rather
			// than grow without bound.
			clear(m.clusters)
		}
		c = &clusterEntry{cycle: -1}
		m.clusters[j.sig] = c
	}
	if c.cycle == m.Cycles {
		return c
	}
	c.cycle = m.Cycles
	c.next = 0
	c.compatible = false
	c.ranked = c.ranked[:0]
	m.ClusterScans++
	for _, entry := range m.machineList {
		if entry.absent {
			continue
		}
		if entry.matched {
			// Handed out before this scan: invisible to findBest, but
			// anyCompatible must still count it.
			if !c.compatible && classad.Match(j.ad, entry.ad) &&
				m.preemptable(entry, classad.Rank(j.ad, entry.ad)) {
				c.compatible = true
			}
			continue
		}
		if !classad.Match(j.ad, entry.ad) {
			continue
		}
		r := classad.Rank(j.ad, entry.ad)
		if !m.preemptable(entry, r) {
			// A claimed machine the job cannot outbid stays invisible,
			// exactly as when claimed machines did not advertise.
			continue
		}
		c.compatible = true
		c.ranked = append(c.ranked, rankedCandidate{entry: entry, rank: r})
	}
	// Stable: equal ranks keep candidate (name) order.  Ranks are
	// never NaN — arithmetic errors such as division by zero evaluate
	// to the error value, which coerces to rank 0 — so the comparator
	// is a strict weak order.
	slices.SortStableFunc(c.ranked, func(a, b rankedCandidate) int {
		switch {
		case a.rank > b.rank:
			return -1
		case a.rank < b.rank:
			return 1
		}
		return 0
	})
	return c
}

// anyCompatible reports whether any advertised machine — including
// ones provisionally matched this cycle — satisfies the job.
func (m *Matchmaker) anyCompatible(j *jobEntry) bool {
	// findBest already resolved the cluster this cycle (anyCompatible
	// is only consulted after it returned nil), so this is a cached
	// flag, not a scan.
	return m.cluster(j).compatible
}

// AdvertiseMachine installs or refreshes a machine ad directly, for
// benchmarks and tests that drive the matchmaker without the bus.
func (m *Matchmaker) AdvertiseMachine(name string, ad *classad.Ad) {
	m.upsertMachine(name, ad, m.bus.Now().Add(adLifetime(m.params.MachineAdLifetime)))
}

// AdvertiseJob installs or refreshes a job request directly, for
// benchmarks and tests that drive the matchmaker without the bus.
func (m *Matchmaker) AdvertiseJob(schedd string, job JobID, ad *classad.Ad) {
	m.upsertJob(m.lease(schedd), job, ad, false)
}

// MachineCount reports the machines currently advertised (absent
// entries awaiting reclamation excluded), for tests.
func (m *Matchmaker) MachineCount() int { return len(m.machines) - m.absentMachines }

// PendingJobs reports the job requests currently queued, for tests.
func (m *Matchmaker) PendingJobs() int { return m.queuedJobs() }

// Negotiate runs one negotiation cycle immediately, for benchmarks
// and tests that drive the matchmaker without the bus timer.
func (m *Matchmaker) Negotiate() { m.negotiate() }
