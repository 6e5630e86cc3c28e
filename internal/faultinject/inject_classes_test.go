package faultinject

import (
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/monitor"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/pool"
)

// TestInjectEvictMidCheckpoint: the owner reclaims the machine
// mid-run.  The vacating starter ships a final checkpoint, so the
// requeued attempt resumes rather than restarting; the later
// owner-left event takes the machine out of service for good.  The
// scenario also delays every shadow-adjacent message, exercising the
// "actor:<prefix>:" site form.
func TestInjectEvictMidCheckpoint(t *testing.T) {
	params := daemon.DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))

	sc, err := Parse(strings.Join([]string{
		"seed = 1",
		"fault class=eviction-mid-checkpoint site=machine:big at=25m0s for=1h0m0s",
		"fault class=msg-delay site=actor:shadow: param=1",
		"",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(sc); err != nil {
		t.Fatal(err)
	}
	ids := p.SubmitStandard(1, func(int) *jvm.Program { return jvm.WellBehaved(45 * time.Minute) })
	p.Run(24 * time.Hour)

	j := p.Schedd.Job(ids[0])
	if j.State != daemon.JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	if len(j.Attempts) < 2 || j.Attempts[0].Machine != "big" || !j.Attempts[0].Evicted {
		t.Fatalf("attempts = %+v", j.Attempts)
	}
	// The vacate shipped the 25-minute progress home; the resumed
	// attempt must not have restarted from zero.
	if j.CheckpointCPU < 20*time.Minute {
		t.Errorf("checkpoint = %v, want the pre-eviction progress", j.CheckpointCPU)
	}
	if m := p.Metrics(); m.Evictions == 0 {
		t.Errorf("no evictions recorded: %s", m)
	}
	// Run stops once the job is terminal; push the clock past the
	// owner-left event so it lands in the log.
	p.Engine.RunFor(time.Hour)
	log := strings.Join(in.Log(), "\n")
	if !strings.Contains(log, "25m0s evict machine:big") ||
		!strings.Contains(log, "1h25m0s owner-left machine:big") {
		t.Errorf("injector log:\n%s", log)
	}
}

// TestInjectRestartDifferentMachine: a silent crash loses the machine
// but not the journaled checkpoints; the job resumes on the fallback
// machine from its last committed progress, and the restart returns
// the original machine to service.
func TestInjectRestartDifferentMachine(t *testing.T) {
	params := daemon.DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	params.ResultTimeout = 30 * time.Minute
	params.ChronicFailureThreshold = 1
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))

	sc, err := Parse("seed = 1\nfault class=restart-different-machine site=machine:big at=25m0s for=2h0m0s\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(sc); err != nil {
		t.Fatal(err)
	}
	ids := p.SubmitStandard(1, func(int) *jvm.Program { return jvm.WellBehaved(45 * time.Minute) })
	p.Run(24 * time.Hour)

	j := p.Schedd.Job(ids[0])
	if j.State != daemon.JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	if len(j.Attempts) < 2 || j.Attempts[0].Machine != "big" || j.Attempts[0].LostContact == nil {
		t.Fatalf("attempts = %+v", j.Attempts)
	}
	if j.LastAttempt().Machine != "small" {
		t.Errorf("finished on %s, want the fallback machine", j.LastAttempt().Machine)
	}
	if j.CheckpointCPU < 20*time.Minute {
		t.Errorf("checkpoint = %v, want the last committed progress", j.CheckpointCPU)
	}
	p.Engine.RunFor(3 * time.Hour)
	if p.Startds[0].Crashed() {
		t.Error("machine still down after the restart event")
	}
	log := strings.Join(in.Log(), "\n")
	if !strings.Contains(log, "25m0s crash machine:big") ||
		!strings.Contains(log, "2h25m0s restart machine:big") {
		t.Errorf("injector log:\n%s", log)
	}
}

// TestInjectCorruptCheckpointForcesRerun: with every checkpoint record
// damaged on the wire, the shadow's CRC check rejects them all, so a
// machine crash costs the job its entire progress — the rerun starts
// from zero and the job still completes, just later.
func TestInjectCorruptCheckpointForcesRerun(t *testing.T) {
	params := daemon.DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	params.ResultTimeout = 50 * time.Minute
	params.ChronicFailureThreshold = 1
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))

	sc, err := Parse(strings.Join([]string{
		"seed = 1",
		"fault class=corrupt-checkpoint site=kind:checkpoint at=1ms",
		"fault class=crash site=machine:big at=25m0s",
		"",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(sc); err != nil {
		t.Fatal(err)
	}
	ids := p.SubmitStandard(1, func(int) *jvm.Program { return jvm.WellBehaved(45 * time.Minute) })
	p.Run(24 * time.Hour)

	j := p.Schedd.Job(ids[0])
	if j.State != daemon.JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	if len(j.Attempts) < 2 || j.Attempts[0].LostContact == nil {
		t.Fatalf("attempts = %+v", j.Attempts)
	}
	// No checkpoint ever survived its CRC check, so nothing was
	// committed and the rerun repeated all 45 minutes of work.
	if j.CheckpointCPU != 0 {
		t.Errorf("checkpoint = %v, want 0 — a corrupt record was accepted", j.CheckpointCPU)
	}
	if done := time.Duration(p.Engine.Now()); done < 85*time.Minute {
		t.Errorf("completed at %v — too early for a from-scratch rerun", done)
	}
	log := strings.Join(in.Log(), "\n")
	if !strings.Contains(log, "arm corrupt-checkpoint kind:checkpoint") {
		t.Errorf("injector log:\n%s", log)
	}
}

// TestInjectPreemptGraceShrink: the preempt-grace-expiry class rewires
// a machine's vacate grace on the clock — with an explicit param and
// with the 1ms default.
func TestInjectPreemptGraceShrink(t *testing.T) {
	params := daemon.DefaultParams()
	params.Preemption = true
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))

	sc, err := Parse(strings.Join([]string{
		"seed = 1",
		"fault class=preempt-grace-expiry site=machine:big at=1m0s",
		"fault class=preempt-grace-expiry site=machine:small at=2m0s param=500",
		"",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(sc); err != nil {
		t.Fatal(err)
	}
	p.Engine.RunFor(5 * time.Minute)
	log := strings.Join(in.Log(), "\n")
	if !strings.Contains(log, "1m0s shrink-grace machine:big to 1ms") ||
		!strings.Contains(log, "2m0s shrink-grace machine:small to 500ms") {
		t.Errorf("injector log:\n%s", log)
	}
}

// TestInjectScheddCrashRecover: the schedd process dies and replays
// its journal.  Checkpoints committed before the crash survive the
// restart, and the job completes after recovery.
func TestInjectScheddCrashRecover(t *testing.T) {
	params := daemon.DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))

	if err := in.Apply(Scenario{Seed: 1, Faults: []Fault{
		{Class: ClassScheddCrash, Site: "schedd:" + p.Schedd.Name(), At: 25 * time.Minute, For: 10 * time.Minute},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := p.SubmitStandard(1, func(int) *jvm.Program { return jvm.WellBehaved(45 * time.Minute) })
	p.Run(24 * time.Hour)

	j := p.Schedd.Job(ids[0])
	if j.State != daemon.JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	if j.CheckpointCPU < 20*time.Minute {
		t.Errorf("checkpoint = %v — the pre-crash commits did not survive the journal replay", j.CheckpointCPU)
	}
	log := strings.Join(in.Log(), "\n")
	if !strings.Contains(log, "crash schedd:") || !strings.Contains(log, "recover schedd:") {
		t.Errorf("injector log:\n%s", log)
	}
}

// TestInjectFilteredRules: lease-expiry and flock-reply-truncate rules
// select by message kind even when their site is an actor; unrelated
// traffic passes untouched and the pool's outcome is unaffected.
func TestInjectFilteredRules(t *testing.T) {
	params := daemon.DefaultParams()
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))

	if err := in.Apply(Scenario{Seed: 1, Faults: []Fault{
		{Class: ClassLeaseExpiry, Site: "actor:" + p.Schedd.Name(), At: time.Millisecond, Count: 1},
		{Class: ClassFlockReplyTruncate, Site: "kind:flock-reply", At: time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := p.SubmitJava(1, func(int) *jvm.Program { return jvm.WellBehaved(time.Minute) })
	p.Run(24 * time.Hour)

	j := p.Schedd.Job(ids[0])
	if j.State != daemon.JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
}

// TestInjectJVMWindowRestores: every JVM degradation restores the
// original installation when its window closes.
func TestInjectJVMWindowRestores(t *testing.T) {
	params := daemon.DefaultParams()
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))

	if err := in.Apply(Scenario{Seed: 1, Faults: []Fault{
		{Class: ClassHeapExhaustion, Site: "machine:big", At: time.Minute, For: 10 * time.Minute, Param: 1 << 20},
		{Class: ClassMissingInstall, Site: "machine:small", At: time.Minute, For: 10 * time.Minute},
		{Class: ClassBadLibraryPath, Site: "machine:big", At: 20 * time.Minute, For: 10 * time.Minute},
	}}); err != nil {
		t.Fatal(err)
	}
	p.Engine.RunFor(time.Hour)
	log := strings.Join(in.Log(), "\n")
	for _, want := range []string{
		"inject heap-exhaustion machine:big", "restore heap-exhaustion machine:big",
		"inject missing-installation machine:small", "restore missing-installation machine:small",
		"inject bad-library-path machine:big", "restore bad-library-path machine:big",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
	cfg := p.Startds[1].Machine().Config()
	if cfg.Broken {
		t.Error("missing-install not restored")
	}
}

// TestFederationTargetsPoolFaults: FederationTargets flattens every
// pool's surfaces into the standard maps, and the pool-site classes
// partition a whole member pool without disturbing its peers.
func TestFederationTargetsPoolFaults(t *testing.T) {
	fed := pool.NewFederation(pool.FederationConfig{
		Seed:   1,
		Params: daemon.DefaultParams(),
		Pools: []pool.FedPoolConfig{
			{Name: "p1", Machines: []daemon.MachineConfig{{Name: "m0", Memory: 2048, AdvertiseJava: true}}},
			{Name: "p2", Machines: []daemon.MachineConfig{{Name: "m0", Memory: 2048, AdvertiseJava: true}}},
		},
	})
	tg := FederationTargets(fed)
	if _, ok := tg.Startds["p2-m0"]; !ok {
		t.Fatalf("startds = %v", tg.Startds)
	}
	if _, ok := tg.Schedds["p1-schedd"]; !ok {
		t.Fatalf("schedds = %v", tg.Schedds)
	}
	if _, ok := tg.FileSystems["submit-p1-schedd"]; !ok {
		t.Fatalf("file systems = %v", tg.FileSystems)
	}
	if pm := tg.Pools["p2"]; pm.Matchmaker != "mm-p2" || len(pm.Machines) != 1 {
		t.Fatalf("pool members = %+v", pm)
	}

	in := New(tg)
	if err := in.Apply(Scenario{Seed: 1, Faults: []Fault{
		{Class: ClassPeerNegotiatorCrash, Site: "pool:p2", At: time.Millisecond, For: 30 * time.Minute},
		{Class: ClassPeerPoolCrash, Site: "pool:p2", At: time.Minute, For: 30 * time.Minute},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := fed.Pools[0].SubmitJava(1, func(int) *jvm.Program { return jvm.WellBehaved(time.Minute) })
	fed.Run(2 * time.Hour)
	// Run stops once every job is terminal; push the clock past the
	// pool-crash window so the restart events fire.
	fed.Engine.RunFor(time.Hour)

	if j := fed.Pools[0].Schedd.Job(ids[0]); j.State != daemon.JobCompleted {
		t.Fatalf("p1 job state = %v, err = %v", j.State, j.FinalErr)
	}
	log := strings.Join(in.Log(), "\n")
	for _, want := range []string{
		"arm peer-negotiator-crash actor:mm-p2",
		"arm peer-pool-crash actor:mm-p2",
		"crash machine:p2-m0",
		"restart machine:p2-m0",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
}

// TestInjectNewClassApplyErrors: the robustness classes reject
// malformed sites exactly as the original classes do.
func TestInjectNewClassApplyErrors(t *testing.T) {
	params := daemon.DefaultParams()
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))
	cases := []struct {
		name string
		f    Fault
		want string
	}{
		{"evict site", Fault{Class: ClassEvictMidCkpt, Site: "submit"}, "must be machine:"},
		{"evict unknown", Fault{Class: ClassEvictMidCkpt, Site: "machine:nope"}, "no machine"},
		{"restart site", Fault{Class: ClassRestartElsewhere, Site: "actor:big"}, "must be machine:"},
		{"grace unknown", Fault{Class: ClassPreemptGrace, Site: "machine:nope"}, "no machine"},
		{"corrupt site", Fault{Class: ClassCorruptCkpt, Site: "everything"}, "corrupt-checkpoint site"},
		{"bad schedd site", Fault{Class: ClassScheddCrash, Site: "machine:big"}, "schedd-crash site"},
		{"unknown schedd", Fault{Class: ClassScheddCrash, Site: "schedd:nope"}, "no schedd"},
		{"bad lease site", Fault{Class: ClassLeaseExpiry, Site: "everything"}, "lease-expiry site"},
		{"bad flock site", Fault{Class: ClassFlockReplyTruncate, Site: "x"}, "flock-reply-truncate site"},
		{"no federation", Fault{Class: ClassPeerPoolCrash, Site: "pool:p2"}, "no federated pool"},
		{"bad pool site", Fault{Class: ClassPeerNegotiatorCrash, Site: "p2"}, "site must be pool:"},
		{"unknown class", Fault{Class: "gamma-ray"}, "unknown class"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := in.Apply(Scenario{Seed: 1, Faults: []Fault{c.f}})
			if err == nil {
				t.Fatalf("Apply accepted %+v", c.f)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestClassTable: every class is declared exactly once — a row of the
// simulation table or an entry of the connection map — and each row
// accepts exactly the site forms pinned here, against a federation
// with a monitor attached.  A form a row does not allow is rejected
// with nothing armed and nothing logged.
func TestClassTable(t *testing.T) {
	machine, msg, fsKey := []string{"machine:"}, []string{"kind:", "actor:"}, []string{""}
	wantForms := map[Class][]string{
		ClassCrash:    {"machine:", "actor:"},
		ClassMsgDrop:  msg,
		ClassMsgDelay: msg,
		ClassMsgDup:   msg,

		ClassFSOffline:   fsKey,
		ClassDiskFull:    fsKey,
		ClassPermission:  fsKey,
		ClassCorruptData: fsKey,

		ClassHeapExhaustion: machine,
		ClassMissingInstall: machine,
		ClassBadLibraryPath: machine,

		ClassScheddCrash:         {"schedd:"},
		ClassLeaseExpiry:         msg,
		ClassPeerNegotiatorCrash: {"pool:"},
		ClassPeerPoolCrash:       {"pool:"},
		ClassFlockReplyTruncate:  msg,
		ClassEvictMidCkpt:        machine,
		ClassCorruptCkpt:         msg,
		ClassRestartElsewhere:    machine,
		ClassPreemptGrace:        machine,
		ClassMonitorStreamDrop:   {"monitor:"},
		ClassDrainGraceExpiry:    machine,
	}

	seen := map[Class]int{}
	for _, c := range Classes {
		seen[c]++
	}
	for _, c := range Classes {
		_, inSim := simClasses[c]
		_, inConn := connClasses[c]
		if seen[c] != 1 || inSim == inConn {
			t.Errorf("%s: %d times in Classes, simulation row %v, connection entry %v", c, seen[c], inSim, inConn)
		}
		if _, pinned := wantForms[c]; pinned != inSim {
			t.Errorf("%s: site forms pinned %v, simulation row %v", c, pinned, inSim)
		}
	}
	if n := len(simClasses) + len(connClasses); n != len(Classes) {
		t.Errorf("%d table entries for %d classes", n, len(Classes))
	}

	fed := pool.NewFederation(pool.FederationConfig{
		Seed:   1,
		Params: daemon.DefaultParams(),
		Pools: []pool.FedPoolConfig{
			{Name: "p1", Machines: []daemon.MachineConfig{{Name: "m0", Memory: 2048, AdvertiseJava: true}}},
			{Name: "p2", Machines: []daemon.MachineConfig{{Name: "m0", Memory: 2048, AdvertiseJava: true}}},
		},
	})
	targets := FederationTargets(fed)
	targets.Monitors = map[string]*monitor.Monitor{"ops": monitor.Attach(fed.Pools[0], obs.NewRecorder(), "ops")}
	// Per form: a site naming a target, and one naming nothing ("" where
	// the form accepts any name).
	sites := map[string][2]string{
		"machine:": {"machine:p1-m0", "machine:nope"},
		"actor:":   {"actor:mm-p1", ""},
		"kind:":    {"kind:advertise", ""},
		"schedd:":  {"schedd:p1-schedd", "schedd:nope"},
		"pool:":    {"pool:p2", "pool:nope"},
		"monitor:": {"monitor:ops", "monitor:nope"},
		"":         {"submit-p1-schedd", "nope"},
	}
	apply := func(f Fault) (armed bool, err error) {
		in, before := New(targets), fed.Engine.Pending()
		err = in.Apply(Scenario{Seed: 1, Faults: []Fault{f}})
		if err != nil && (fed.Engine.Pending() != before || len(in.Log()) != 0) {
			t.Errorf("%s at %s: rejected, but armed %d events and logged %v",
				f.Class, f.Site, fed.Engine.Pending()-before, in.Log())
		}
		return fed.Engine.Pending() > before, err
	}
	for c, forms := range wantForms {
		for form, site := range sites {
			f := Fault{Class: c, Site: site[0], Path: "/data/in", For: time.Minute}
			allowed := false
			for _, w := range forms {
				allowed = allowed || w == form
			}
			armed, err := apply(f)
			switch {
			case allowed && (err != nil || !armed):
				t.Errorf("%s at %s: armed %v, err %v; want it armed", c, f.Site, armed, err)
			case !allowed && forms[0] == "" && (err == nil || !strings.Contains(err.Error(), "no file system registered")):
				t.Errorf("%s at %s: err %v, want an unknown file system", c, f.Site, err)
			case !allowed && forms[0] != "" && (err == nil || !strings.Contains(err.Error(), "site must be ")):
				t.Errorf("%s at %s: err %v, want a site-form rejection", c, f.Site, err)
			}
			if !allowed || site[1] == "" {
				continue
			}
			f.Site = site[1]
			if _, err := apply(f); err == nil || !strings.Contains(err.Error(), "no ") {
				t.Errorf("%s at %s: err %v, want the unknown target named", c, f.Site, err)
			}
			if simClasses[c].path {
				f.Site, f.Path = site[0], ""
				if _, err := apply(f); err == nil || !strings.Contains(err.Error(), "needs a path") {
					t.Errorf("%s without a path: err %v", c, err)
				}
			}
		}
	}

	for c := range connClasses {
		cf, err := ConnFaultFor(Fault{Class: c})
		if c == ClassKeyExpiry {
			if err == nil {
				t.Errorf("%s mapped through the proxy: %+v", c, cf)
			}
		} else if err != nil || cf == (ConnFault{}) {
			t.Errorf("%s: ConnFault %+v, err %v", c, cf, err)
		}
		if _, err := apply(Fault{Class: c, Site: "chirp"}); err == nil || !strings.Contains(err.Error(), "Proxy") {
			t.Errorf("%s on the simulation bus: err %v", c, err)
		}
	}
}
