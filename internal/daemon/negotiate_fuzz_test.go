package daemon

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/sim"
)

// FuzzNegotiate is the differential fuzz of the negotiation cycle: a
// byte program drives two matchmakers through the same operations —
// machine and job ads advertised, re-sent and withdrawn, the clock
// advanced past ad lifetimes, preemption toggled, flocked-in foreign
// jobs mixed with home ones — and at every cycle one runs negotiate,
// the other the reference scan refNegotiate (matchmaker_ref_test.go).
// After every cycle the two must have sent the same match and
// no-match notifications in the same order and hold the same
// counters.  The reference sends one no-match per job; the cycle
// sends runs (noticeRun), which its log flattens, so the comparison is
// also the exactness oracle of the runs.  Job ads reach the cycle's
// arm as runs too (opJobRun) while the reference arm gets them one by
// one.  The ad tables cover what the scope argument rests on:
// missing attributes, UNDEFINED Requirements and Rank on either side,
// owner policies that veto on an attribute jobs lack, byte-identical
// ads (auto-clusters), rank ties, claimed machines at an incumbent
// Rank, dynamic bindings computed from other attributes, and
// avoidance-strengthened Requirements.
func FuzzNegotiate(f *testing.F) {
	for _, s := range negotiateSeeds() {
		f.Add([]byte(s.prog))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		if _, err := runNegotiateProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNegotiateSeeds replays the named seed shapes, each reported by
// name, and checks that together they reach every outcome the
// comparison is about.
func TestNegotiateSeeds(t *testing.T) {
	var total Matchmaker
	longRuns := 0
	for _, s := range negotiateSeeds() {
		a, err := runNegotiateProgram([]byte(s.prog))
		if err != nil {
			t.Errorf("%s: %v", s.name, err)
			continue
		}
		t.Logf("%s: %s", s.name, a.counters())
		total.MatchesMade += a.m.MatchesMade
		total.NoMatches += a.m.NoMatches
		total.ForeignMatches += a.m.ForeignMatches
		total.AdsExpired += a.m.AdsExpired
		total.JobAdsExpired += a.m.JobAdsExpired
		longRuns += a.longRuns
	}
	for name, n := range map[string]int{
		"matches": total.MatchesMade, "no-matches": total.NoMatches,
		"foreign matches": total.ForeignMatches, "machine ads expired": total.AdsExpired,
		"job ads expired": total.JobAdsExpired, "no-match runs of two or more": longRuns,
	} {
		if n == 0 {
			t.Errorf("no seed reaches any %s", name)
		}
	}
}

// Machine ads: %[1]s is the machine name.  Every machine advertises
// Machine, so avoidance (member(target.Machine, …)) can see it.
var fuzzMachineAds = []string{
	0:  `[ Machine = "%[1]s"; Memory = 2048; HasJava = true; OpSys = "LINUX"; State = "Unclaimed" ]`,
	1:  `[ Machine = "%[1]s"; Memory = 1024; HasJava = true; OpSys = "LINUX"; State = "Unclaimed" ]`,
	2:  `[ Machine = "%[1]s"; Memory = 2048; HasJava = false; OpSys = "LINUX" ]`,
	3:  `[ Machine = "%[1]s"; Memory = 2048; HasJava = my.Memory > 0; OpSys = "LINUX" ]`,
	4:  `[ Machine = "%[1]s"; Memory = 2048; HasJava = true; Requirements = my.NightShift ]`,
	5:  `[ Machine = "%[1]s"; HasJava = true ]`,
	6:  `[ Machine = "%[1]s"; Memory = 2048; HasJava = true; State = "Claimed"; CurrentRank = 2048 ]`,
	7:  `[ Machine = "%[1]s"; Memory = 4096; HasJava = true; State = "Claimed"; CurrentRank = 0 ]`,
	8:  `[ Machine = "%[1]s"; Memory = 4096; HasJava = true; HasGPU = true; GPUMemory = 8 ]`,
	9:  `[ Machine = "%[1]s"; Memory = 2048; HasJava = true; Requirements = undefined ]`,
	10: `[ Machine = "%[1]s"; Memory = 2048; HasJava = true; Requirements = target.Owner != "mallory" ]`,
	11: `[ Machine = "%[1]s"; Memory = 2048.0; HasJava = true; OpSys = "linux" ]`,
	12: `[ Machine = "%[1]s"; Memory = 2048; HasJava = true; Requirements = target.NightShift ]`,
	13: `[ Machine = "%[1]s"; Memory = Base * 2; Base = 1024; HasJava = true; OpSys = "LINUX" ]`,
}

// Job ads.  Jobs advertising the same variant render identically and
// share an auto-cluster.
var fuzzJobAds = []string{
	0:  `[ Owner = "alice"; ImageSize = 128; Requirements = target.HasJava && target.Memory >= my.ImageSize; Rank = target.Memory ]`,
	1:  `[ Owner = "alice"; Requirements = target.HasJava && (isundefined(target.HasGPU) || target.HasGPU); Rank = target.GPUMemory ]`,
	2:  `[ Owner = "bob"; Requirements = target.HasJava && target.HasGPU ]`,
	3:  `[ Owner = "alice"; ImageSize = 128; Requirements = (target.HasJava && target.Memory >= my.ImageSize) && !member(target.Machine, {"m01", "m03", "m04"}); Rank = target.Memory ]`,
	4:  `[ Owner = "carol"; Requirements = target.HasJava; Rank = target.NoSuch ]`,
	5:  `[ ImageSize = 64 ]`,
	6:  `[ Owner = "bob"; Requirements = undefined; Rank = 1 ]`,
	7:  `[ Owner = "carol"; Requirements = target.HasJava == true; Rank = 1 ]`,
	8:  `[ Owner = "bob"; ImageSize = 128; Requirements = target.HasJava && target.Memory >= my.ImageSize; Rank = target.Memory ]`,
	9:  `[ Owner = "dave"; NightShift = true; Requirements = target.HasJava; Rank = target.Memory ]`,
	10: `[ Owner = "alice"; ImageSize = 1099511627776; Requirements = target.Memory >= my.ImageSize ]`,
	11: `[ Owner = "dave"; Requirements = target.OpSys == "LINUX"; Rank = target.Memory / 0 ]`,
	12: `[ Owner = "mallory"; Requirements = target.HasJava; Rank = target.Memory ]`,
	13: `[ Owner = "erin"; Requirements = target.Memory >= 1024; Rank = target.HasGPU == true ]`,
}

const (
	fuzzMachines = 24
	fuzzJobIDs   = 40
)

var fuzzSchedds = []string{"s0", "s1", "s2"}

// negotiateArm is one matchmaker under a fuzz program: its own engine
// and bus, the notifications its schedds received, and its own ad
// objects — an unchanged ad is re-sent by pointer, as startds and
// schedds do, unless the program asks for a fresh copy.
type negotiateArm struct {
	eng       *sim.Engine
	m         *Matchmaker
	negotiate func(*Matchmaker)
	log       []string
	// longRuns counts no-match messages carrying two or more jobs.
	longRuns   int
	machineAds map[[2]int]*classad.Ad
	jobAds     map[int]*classad.Ad
}

func newNegotiateArm(negotiate func(*Matchmaker)) *negotiateArm {
	eng := sim.New(1)
	bus := sim.NewBus(eng, 0)
	params := DefaultParams()
	params.NegotiationInterval = 1000 * time.Hour
	a := &negotiateArm{
		eng:        eng,
		m:          NewMatchmaker(bus, params),
		negotiate:  negotiate,
		machineAds: make(map[[2]int]*classad.Ad),
		jobAds:     make(map[int]*classad.Ad),
	}
	for _, name := range fuzzSchedds {
		bus.Register(name, sim.ActorFunc(func(msg sim.Message) {
			switch body := msg.Body.(type) {
			case matchNotifyMsg:
				a.log = append(a.log, fmt.Sprintf("%s match %d->%s", name, body.Job, body.Machine))
			case noMatchMsg:
				if len(body.Jobs) > 1 {
					a.longRuns++
				}
				for _, id := range body.Jobs {
					a.log = append(a.log, fmt.Sprintf("%s no-match %d", name, id))
				}
			}
		}))
	}
	return a
}

func mustParseAd(src string) *classad.Ad {
	ad, err := classad.Parse(src)
	if err != nil {
		panic(err)
	}
	return ad
}

func (a *negotiateArm) advertiseMachine(i, variant int, fresh bool) {
	name := fmt.Sprintf("m%02d", i)
	key := [2]int{i, variant}
	ad := a.machineAds[key]
	if ad == nil || fresh {
		ad = mustParseAd(fmt.Sprintf(fuzzMachineAds[variant], name))
		a.machineAds[key] = ad
	}
	a.m.Receive(sim.Message{Body: advertiseMsg{Name: name, Ad: ad}})
}

// jobAd returns the arm's ad of a variant, parsed afresh on request.
func (a *negotiateArm) jobAd(variant int, fresh bool) *classad.Ad {
	ad := a.jobAds[variant]
	if ad == nil || fresh {
		ad = mustParseAd(fuzzJobAds[variant])
		a.jobAds[variant] = ad
	}
	return ad
}

// receiveAds delivers one run of job advertisements.
func (a *negotiateArm) receiveAds(schedd string, ads ...jobAd) {
	a.m.Receive(sim.Message{Body: jobAdsMsg{Schedd: schedd, Ads: ads}})
}

func (a *negotiateArm) advertiseJob(schedd string, id JobID, variant int, fresh, foreign bool) {
	a.receiveAds(schedd, jobAd{Job: id, Ad: a.jobAd(variant, fresh), Flocked: foreign})
}

func (a *negotiateArm) withdrawJob(schedd string, id JobID) {
	a.receiveAds(schedd, jobAd{Job: id})
}

// counters renders every counter both cycles keep.
func (a *negotiateArm) counters() string {
	m := a.m
	return fmt.Sprintf("cycles=%d matches=%d no-matches=%d foreign=%d ads-expired=%d job-ads-expired=%d machines=%d pending=%d",
		m.Cycles, m.MatchesMade, m.NoMatches, m.ForeignMatches, m.AdsExpired,
		m.JobAdsExpired, m.MachineCount(), m.PendingJobs())
}

// Fuzz program opcodes.  Each op reads its argument bytes after the
// opcode; a program cut short reads zeros.
const (
	opMachine     = iota // machine, variant|0x80 fresh
	opDropMachine        // machine: the machine's entry goes absent, as at expiry
	opJob                // schedd|0x80 foreign, job, variant|0x80 fresh
	opWithdrawJob        // schedd, job
	opAdvance            // quarter-minutes
	opPreemption         // on&1
	opNegotiate          //
	opMachineWave        // count, variant|0x40 alternate with variant+1
	opJobWave            // schedd|0x80 foreign, count, variant
	opJobRun             // schedd|0x80 foreign, count, variant|0x80 withdraw every third
	numOps
)

// runNegotiateProgram runs prog on both arms, comparing after every
// cycle and once more after a final cycle, and returns the fast arm.
func runNegotiateProgram(prog []byte) (*negotiateArm, error) {
	fast := newNegotiateArm((*Matchmaker).Negotiate)
	ref := newNegotiateArm((*Matchmaker).refNegotiate)
	arms := []*negotiateArm{fast, ref}
	arg := func(i int) int {
		if i < len(prog) {
			return int(prog[i])
		}
		return 0
	}
	cycle := func() error {
		for _, a := range arms {
			a.negotiate(a.m)
			a.eng.RunUntil(a.eng.Now()) // deliver the notifications
		}
		if !slices.Equal(fast.log, ref.log) {
			return fmt.Errorf("cycle %d: notifications differ\nfast: %q\nref:  %q",
				fast.m.Cycles, fast.log, ref.log)
		}
		if fc, rc := fast.counters(), ref.counters(); fc != rc {
			return fmt.Errorf("cycle %d: counters differ\nfast: %s\nref:  %s", fast.m.Cycles, fc, rc)
		}
		return nil
	}
	for pc := 0; pc < len(prog); {
		op := int(prog[pc]) % numOps
		a1, a2, a3 := arg(pc+1), arg(pc+2), arg(pc+3)
		switch op {
		case opMachine:
			for _, a := range arms {
				a.advertiseMachine(a1%fuzzMachines, (a2&0x7f)%len(fuzzMachineAds), a2&0x80 != 0)
			}
			pc += 3
		case opDropMachine:
			for _, a := range arms {
				a.m.removeMachine(fmt.Sprintf("m%02d", a1%fuzzMachines))
			}
			pc += 2
		case opJob:
			schedd := fuzzSchedds[(a1&0x7f)%len(fuzzSchedds)]
			for _, a := range arms {
				a.advertiseJob(schedd, JobID(a2%fuzzJobIDs+1), (a3&0x7f)%len(fuzzJobAds),
					a3&0x80 != 0, a1&0x80 != 0)
			}
			pc += 4
		case opWithdrawJob:
			schedd := fuzzSchedds[a1%len(fuzzSchedds)]
			for _, a := range arms {
				a.withdrawJob(schedd, JobID(a2%fuzzJobIDs+1))
			}
			pc += 3
		case opAdvance:
			for _, a := range arms {
				a.eng.RunFor(time.Duration(a1%16) * 15 * time.Second)
			}
			pc += 2
		case opPreemption:
			for _, a := range arms {
				a.m.params.Preemption = a1&1 != 0
			}
			pc += 2
		case opNegotiate:
			if err := cycle(); err != nil {
				return nil, err
			}
			pc++
		case opMachineWave:
			v := (a2 & 0x3f) % len(fuzzMachineAds)
			for i := 0; i < a1%(fuzzMachines+1); i++ {
				vi := v
				if a2&0x40 != 0 && i%2 == 1 {
					vi = (v + 1) % len(fuzzMachineAds)
				}
				for _, a := range arms {
					a.advertiseMachine(i, vi, false)
				}
			}
			pc += 3
		case opJobWave:
			schedd := fuzzSchedds[(a1&0x7f)%len(fuzzSchedds)]
			for i := 0; i < a2%(fuzzJobIDs+1); i++ {
				for _, a := range arms {
					a.advertiseJob(schedd, JobID(i+1), a3%len(fuzzJobAds), false, a1&0x80 != 0)
				}
			}
			pc += 4
		case opJobRun:
			// One refresh run to the cycle's arm; the same entries one
			// message each to the reference arm.  Entry i is job i+1 at
			// variant+i, or its withdrawal.
			schedd := fuzzSchedds[(a1&0x7f)%len(fuzzSchedds)]
			for _, a := range arms {
				var run []jobAd
				for i := 0; i < a2%(fuzzJobIDs+1); i++ {
					e := jobAd{Job: JobID(i + 1), Flocked: a1&0x80 != 0}
					if a3&0x80 == 0 || i%3 != 2 {
						e.Ad = a.jobAd(((a3&0x7f)+i)%len(fuzzJobAds), false)
					}
					run = append(run, e)
				}
				if a == fast {
					a.receiveAds(schedd, run...)
					continue
				}
				for _, e := range run {
					a.receiveAds(schedd, e)
				}
			}
			pc += 4
		}
	}
	return fast, cycle()
}

// negotiateProg builds a seed program op by op.
type negotiateProg []byte

func (p negotiateProg) machine(i, variant int) negotiateProg {
	return append(p, opMachine, byte(i), byte(variant))
}

func (p negotiateProg) freshMachine(i, variant int) negotiateProg {
	return append(p, opMachine, byte(i), byte(variant)|0x80)
}

func (p negotiateProg) dropMachine(i int) negotiateProg {
	return append(p, opDropMachine, byte(i))
}

func (p negotiateProg) job(schedd, id, variant int) negotiateProg {
	return append(p, opJob, byte(schedd), byte(id-1), byte(variant))
}

func (p negotiateProg) foreignJob(schedd, id, variant int) negotiateProg {
	return append(p, opJob, byte(schedd)|0x80, byte(id-1), byte(variant))
}

func (p negotiateProg) withdraw(schedd, id int) negotiateProg {
	return append(p, opWithdrawJob, byte(schedd), byte(id-1))
}

// advance moves the clock by quarter-minutes (at most 15 per op).
func (p negotiateProg) advance(quarters int) negotiateProg {
	return append(p, opAdvance, byte(quarters))
}

func (p negotiateProg) preemption(on bool) negotiateProg {
	if on {
		return append(p, opPreemption, 1)
	}
	return append(p, opPreemption, 0)
}

func (p negotiateProg) negotiate() negotiateProg { return append(p, opNegotiate) }

// machines advertises machines 0..n-1 with one variant.
func (p negotiateProg) machines(n, variant int) negotiateProg {
	return append(p, opMachineWave, byte(n), byte(variant))
}

// alternating advertises machines 0..n-1 alternating variant and
// variant+1.
func (p negotiateProg) alternating(n, variant int) negotiateProg {
	return append(p, opMachineWave, byte(n), byte(variant)|0x40)
}

// jobs advertises jobs 1..n of one schedd with one variant.
func (p negotiateProg) jobs(schedd, n, variant int) negotiateProg {
	return append(p, opJobWave, byte(schedd), byte(n), byte(variant))
}

func (p negotiateProg) foreignJobs(schedd, n, variant int) negotiateProg {
	return append(p, opJobWave, byte(schedd)|0x80, byte(n), byte(variant))
}

// jobRun advertises jobs 1..n of one schedd as one run, job i at
// variant+i-1; with withdraw, every third entry is a withdrawal.
func (p negotiateProg) jobRun(schedd, n, variant int, withdraw bool) negotiateProg {
	if withdraw {
		variant |= 0x80
	}
	return append(p, opJobRun, byte(schedd), byte(n), byte(variant))
}

// negotiateSeeds are the named seed shapes.  The first four reproduce
// the UNDEFINED-edge pool's (pool determinism tests) at cycle
// granularity; the rest aim at the fast path's own machinery — the
// machine list and its tombstones, the rank sort, the per-cycle
// cluster reset — so that a broken fast path fails on the seeds alone.
func negotiateSeeds() []struct{ name, prog string } {
	var p negotiateProg
	seed := func(name string, prog negotiateProg) struct{ name, prog string } {
		return struct{ name, prog string }{name, string(prog)}
	}
	return []struct{ name, prog string }{
		// GPU rank: every machine but one leaves GPUMemory UNDEFINED
		// (rank 0, never a veto); the GPU machine must go first.
		seed("gpu-rank", p.machines(8, 0).machine(8, 8).jobs(0, 6, 1).negotiate().
			advance(4).machines(9, 0).jobs(1, 4, 1).negotiate()),
		// GPU requirement: target.HasGPU is UNDEFINED everywhere, so the
		// jobs stay idle and each is told once — until a GPU machine
		// appears.
		seed("gpu-requirement", p.machines(6, 0).jobs(0, 3, 2).negotiate().negotiate().
			job(0, 2, 2).negotiate().machine(9, 8).negotiate()),
		// The owner veto on an attribute jobs lack (my.NightShift on
		// the machine, target.NightShift against the job): UNDEFINED,
		// not false, so only the night-shift job runs there.
		seed("nightshift-veto", p.alternating(6, 4).machine(7, 12).jobs(0, 5, 0).job(1, 1, 9).
			negotiate().advance(2).job(1, 2, 9).machine(8, 12).negotiate()),
		// Mid-cycle expiry: ads (150s lifetime) age out between cycles
		// at instants off the 60s beat; some machines re-advertise, the
		// rest vanish from the list; job requests expire too.
		seed("mid-cycle-expiry", p.machines(10, 0).jobs(0, 4, 0).jobs(1, 3, 8).negotiate().
			advance(4).negotiate().advance(5).machines(5, 0).jobs(1, 3, 8).negotiate().
			advance(3).machine(7, 1).advance(2).jobs(0, 12, 0).negotiate().advance(11).
			negotiate().machines(12, 1).jobs(2, 9, 7).negotiate()),
		// Dynamic bindings: HasJava and Memory computed from other
		// attributes.
		seed("dynamic-binding", p.machine(0, 2).machine(1, 3).machine(2, 2).machine(3, 13).
			jobs(0, 3, 0).job(1, 9, 7).negotiate()),
		// Rank ties across more candidates than an insertion sort
		// handles: two rank tiers, ties broken by machine name.
		seed("rank-ties", p.alternating(24, 0).jobs(0, 24, 0).negotiate().
			alternating(24, 0).jobs(1, 20, 7).negotiate()),
		// The auto-cluster is rebuilt every cycle: matched machines
		// re-advertise, a new machine arrives, and more jobs join the
		// same cluster.
		seed("cluster-reset", p.machines(4, 0).jobs(0, 6, 0).negotiate().machines(4, 0).
			machine(5, 8).jobs(1, 3, 0).negotiate().freshMachine(6, 0).negotiate()),
		// Claimed machines at an incumbent Rank: visible only under
		// preemption, and only to a strictly better Rank.
		seed("preemption", p.machines(3, 6).machine(3, 7).jobs(0, 2, 0).jobs(1, 2, 13).
			negotiate().preemption(true).jobs(0, 3, 0).negotiate().machine(4, 6).
			job(2, 1, 8).negotiate().preemption(false).negotiate()),
		// Flocked-in requests are served after every home job.
		seed("foreign", p.machines(3, 0).foreignJobs(2, 2, 0).jobs(0, 2, 0).negotiate().
			machines(3, 0).foreignJob(1, 5, 0).negotiate()),
		// Avoidance-strengthened Requirements, missing attributes on
		// both sides, UNDEFINED/ERROR Requirements and Rank, and
		// fair-share between owners.
		seed("avoidance-and-undefined", p.machines(6, 0).machine(6, 5).machine(7, 9).
			machine(8, 10).machine(9, 11).jobs(0, 4, 3).job(1, 1, 4).job(1, 2, 5).
			job(1, 3, 6).job(1, 4, 10).job(1, 5, 11).job(2, 1, 12).job(2, 2, 13).
			negotiate().withdraw(1, 2).dropMachine(0).negotiate()),
		// Runs both ways: refreshes of mixed ads arrive as one run at
		// the cycle (withdrawals among them), and each cycle's no-match
		// notices to a schedd are cut into runs by its matches.
		seed("runs", p.machines(5, 0).machine(5, 8).jobRun(0, 14, 0, false).
			jobRun(1, 9, 2, true).negotiate().advance(4).machines(6, 0).
			jobRun(0, 14, 0, true).jobRun(2, 7, 5, false).negotiate().
			jobRun(1, 12, 1, false).negotiate()),
	}
}
