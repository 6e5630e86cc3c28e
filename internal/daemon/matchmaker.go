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

	jobs map[jobKey]*jobEntry
	// schedds interns schedd names for jobKey, looked up once per run
	// of advertisements.
	schedds     map[string]jobKey
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
	noMatches noticeRun[JobID]

	// clusters caches per-cycle candidate scans keyed by job-ad
	// signature: jobs whose ads render identically are
	// interchangeable to matchmaking, so the pool is ranked once per
	// cluster per cycle instead of once per job (auto-clustering).
	clusters map[string]*clusterEntry

	// usage counts matches handed to each owner, the basis of the
	// fair-share ordering.
	usage map[string]int

	// Scratch storage reused across cycles.
	ownerScratch []string
	jobScratch   []*jobEntry
	nameScratch  []string

	// Cycles counts negotiation cycles, for metrics.
	Cycles int
	// MatchesMade counts notifications sent.
	MatchesMade int
	// AdsExpired counts machine ads dropped for silence.
	AdsExpired int
	// JobAdsExpired counts job requests dropped for silence: a live
	// schedd refreshes its idle jobs every AdInterval, so these are
	// the requests of a dead schedd aging out of the pool.
	JobAdsExpired int
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

// jobKey identifies a request: the schedd's interned index above
// jobKeyIDBits, the JobID below.  An integer key keeps every refresh,
// withdrawal and match on the map's fast64 path; a (name, id) struct
// key hashed and compared the schedd name per message.
type jobKey uint64

// jobKeyIDBits leaves 24 bits of schedd index.  Job ids are queue
// positions counted from 1, so 2^40 is out of any queue's reach.
const jobKeyIDBits = 40

// scheddKey returns the schedd's interned index in place above
// jobKeyIDBits, interning the name on first sight.
func (m *Matchmaker) scheddKey(schedd string) jobKey {
	idx, ok := m.schedds[schedd]
	if !ok {
		idx = jobKey(len(m.schedds)+1) << jobKeyIDBits
		m.schedds[schedd] = idx
	}
	return idx
}

// job returns the key of the schedd's job; k is a scheddKey.
func (k jobKey) job(job JobID) jobKey {
	if uint64(job)>>jobKeyIDBits != 0 {
		panic("daemon: job id out of range")
	}
	return k | jobKey(job)
}

type jobEntry struct {
	key    jobKey
	schedd string
	job    JobID
	ad     *classad.Ad
	owner  string
	// noMatchSent limits no-match notifications to one per
	// advertisement, keeping a steady-state cycle allocation-free;
	// each schedd re-advertise re-arms it.
	noMatchSent bool
	// expires is the request's lifetime; a schedd that stops
	// refreshing (it crashed) has its requests age out rather than
	// matching machines to a submitter that no longer exists.
	expires sim.Time
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
		jobs:        make(map[jobKey]*jobEntry),
		schedds:     make(map[string]jobKey),
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
	case jobAdsMsg:
		m.receiveJobAds(body)
	case flockPingMsg:
		// A peer pool's flock coordinator probes for liveness; answer
		// by name so a partitioned negotiator goes silent rather than
		// wrong.
		m.send(msg.From, kindFlockPong, flockPongMsg{From: m.name, Seq: body.Seq})
	}
}

// receiveJobAds applies a schedd's run of job advertisements in order,
// resolving the schedd's key once for the run.
func (m *Matchmaker) receiveJobAds(run jobAdsMsg) {
	schedd := m.scheddKey(run.Schedd)
	for _, e := range run.Ads {
		if e.Ad == nil {
			m.removeJob(schedd.job(e.Job)) // the schedd withdraws the request
			continue
		}
		m.upsertJob(schedd.job(e.Job), run.Schedd, e.Job, e.Ad, e.Flocked)
	}
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

// upsertJob installs or refreshes a job request in its owner bucket;
// key is the schedd's job.
func (m *Matchmaker) upsertJob(key jobKey, schedd string, job JobID, ad *classad.Ad, foreign bool) {
	expires := m.bus.Now().Add(adLifetime(m.params.JobAdLifetime))
	if old, ok := m.jobs[key]; ok {
		if old.ad == ad {
			// The schedd re-sent the identical ad object (periodic
			// refresh of an unchanged idle job); the cluster
			// signature is still good.
			old.noMatchSent = false
			old.expires = expires
			return
		}
		// Refresh in place; owner may change if the ad changed.
		if newOwner := jobOwner(schedd, ad); newOwner != old.owner {
			m.removeJob(key)
		} else {
			old.ad = ad
			old.sig = "" // content changed: re-cluster lazily
			old.noMatchSent = false
			old.expires = expires
			return
		}
	}
	j := &jobEntry{key: key, schedd: schedd, job: job, ad: ad, owner: jobOwner(schedd, ad),
		expires: expires, foreign: foreign}
	if foreign {
		m.foreignJobs++
	}
	m.jobs[key] = j
	q := m.ownerQueues[j.owner]
	if len(q) == 0 {
		pos, _ := slices.BinarySearch(m.ownerNames, j.owner)
		m.ownerNames = slices.Insert(m.ownerNames, pos, j.owner)
	}
	pos, found := slices.BinarySearchFunc(q, j, compareJobEntries)
	if found && q[pos].dead {
		// The same job was withdrawn and re-advertised within one
		// cycle (failed claim); its tombstone sits exactly where the
		// new entry sorts, so revive the slot instead of shifting the
		// queue.  A live entry can never be found here — it would have
		// matched in m.jobs above.
		q[pos] = j
		m.deadJobs--
		return
	}
	m.ownerQueues[j.owner] = slices.Insert(q, pos, j)
}

// removeJob withdraws a job request.  The entry is tombstoned in its
// queue slot — scans skip it, and the next cycle's compaction reclaims
// it along with any owner bucket it leaves empty.
func (m *Matchmaker) removeJob(key jobKey) {
	j, ok := m.jobs[key]
	if !ok {
		return
	}
	delete(m.jobs, key)
	j.dead = true
	m.deadJobs++
	if j.foreign {
		m.foreignJobs--
	}
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
	for round := 0; len(jobs) < len(m.jobs); round++ {
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
			if !j.noMatchSent && !m.anyCompatible(j) {
				// Not outbid — unmatchable: no ad in the pool
				// satisfies the job at all.  Tell the schedd, which
				// alone knows whether its own avoidance constraint
				// caused this.  One notification per advertisement.
				j.noMatchSent = true
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
		m.removeJob(j.key)
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
	now := m.bus.Now()
	var expired []jobKey
	for _, o := range m.ownerNames {
		for _, j := range m.ownerQueues[o] {
			if !j.dead && now > j.expires {
				expired = append(expired, j.key)
			}
		}
	}
	for _, key := range expired {
		m.removeJob(key)
		m.JobAdsExpired++
	}
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
		if len(m.clusters) >= 2*len(m.jobs)+16 {
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
	m.upsertJob(m.scheddKey(schedd).job(job), schedd, job, ad, false)
}

// MachineCount reports the machines currently advertised (absent
// entries awaiting reclamation excluded), for tests.
func (m *Matchmaker) MachineCount() int { return len(m.machines) - m.absentMachines }

// PendingJobs reports the job requests currently queued, for tests.
func (m *Matchmaker) PendingJobs() int { return len(m.jobs) }

// Negotiate runs one negotiation cycle immediately, for benchmarks
// and tests that drive the matchmaker without the bus timer.
func (m *Matchmaker) Negotiate() { m.negotiate() }
