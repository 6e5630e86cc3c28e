package faultinject

import (
	"cmp"
	"fmt"
	"maps"
	"strings"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/monitor"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/sim"
	"github.com/errscope/grid/internal/vfs"
)

// Targets names the injectable surfaces of one simulated pool.
type Targets struct {
	Engine *sim.Engine
	Bus    *sim.Bus
	// Startds maps machine name to startd, for machine crash/restart
	// and JVM degradation.
	Startds map[string]*daemon.Startd
	// Schedds maps schedd name to schedd, for schedd crash and
	// journal-replay recovery.
	Schedds map[string]*daemon.Schedd
	// FileSystems maps site keys to file systems, for the fs fault
	// classes.  PoolTargets registers each schedd's submit file
	// system (see there for the keys).
	FileSystems map[string]*vfs.FileSystem
	// Pools maps a federated pool's name to its membership, for the
	// pool-site fault classes (peer-negotiator-crash, peer-pool-crash).
	// FederationTargets fills it; single-pool targets leave it nil.
	Pools map[string]PoolMembers
	// Monitors maps an attached ops-plane monitor's name to its
	// daemon, for the monitor-site fault classes.  Callers that
	// attach a monitor register it here; PoolTargets leaves it nil.
	Monitors map[string]*monitor.Monitor
}

// PoolMembers names the actors a pool-site fault strikes.
type PoolMembers struct {
	Matchmaker string
	Machines   []string
}

// PoolTargets derives the standard targets from an assembled pool.  A
// standalone pool's submit file systems are "submit", "submit1", ...;
// a federation member's are "submit-<schedd name>".
func PoolTargets(p *pool.Pool) Targets {
	t := Targets{
		Engine:      p.Engine,
		Bus:         p.Bus,
		Startds:     make(map[string]*daemon.Startd, len(p.Startds)),
		Schedds:     make(map[string]*daemon.Schedd, len(p.Schedds)),
		FileSystems: make(map[string]*vfs.FileSystem, len(p.Schedds)),
	}
	for _, sd := range p.Startds {
		t.Startds[sd.Name()] = sd
	}
	for i, s := range p.Schedds {
		t.Schedds[s.Name()] = s
		key := "submit-" + s.Name()
		if p.Name == "" {
			key = "submit"
			if i > 0 {
				key = fmt.Sprintf("submit%d", i)
			}
		}
		t.FileSystems[key] = s.SubmitFS
	}
	return t
}

// FederationTargets derives the injectable surfaces of an assembled
// federation: every member's PoolTargets merged into one set (names
// are already pool-prefixed), plus the pool membership table the
// pool-site fault classes address.
func FederationTargets(f *pool.Federation) Targets {
	t := Targets{
		Engine:      f.Engine,
		Bus:         f.Bus,
		Startds:     make(map[string]*daemon.Startd),
		Schedds:     make(map[string]*daemon.Schedd),
		FileSystems: make(map[string]*vfs.FileSystem),
		Pools:       make(map[string]PoolMembers, len(f.Pools)),
	}
	for _, p := range f.Pools {
		pt := PoolTargets(p)
		maps.Copy(t.Startds, pt.Startds)
		maps.Copy(t.Schedds, pt.Schedds)
		maps.Copy(t.FileSystems, pt.FileSystems)
		pm := PoolMembers{Matchmaker: p.Matchmaker.Name()}
		for _, sd := range p.Startds {
			pm.Machines = append(pm.Machines, sd.Name())
		}
		t.Pools[p.Name] = pm
	}
	return t
}

// simClass is one simulation fault class, declared once: the sites
// check accepts, how Apply arms the fault and, for a message rule,
// which messages it strikes and what it does to them.
type simClass struct {
	// sites lists the accepted site forms; the prefix through the colon
	// selects one, and "<fs-key>" is a key of Targets.FileSystems.
	sites []string
	// noun names the class in a site rejection; "" = the class name.
	noun string
	// path reports whether the fault needs a Path.
	path bool
	// arm schedules a validated fault on the virtual clock.
	arm func(in *Injector, f Fault)
	// kind, if set, is the one message kind a rule strikes whatever its
	// site matched; other traffic passes, sparing the match budget.
	kind string
	// fate folds one match of a message rule into the message's fate.
	fate func(f Fault, out *sim.Fault)
}

var (
	msgSites     = []string{"kind:<kind>", "actor:<name>"}
	machineSites = []string{"machine:<name>"}
	fsSites      = []string{"<fs-key>"}
)

// simClasses holds one row per simulation fault class; connClasses
// holds the rest.
var simClasses = map[Class]simClass{
	// A machine crashes and restarts; a daemon crash is a partition
	// window dropping every message to or from the actor.
	ClassCrash: {sites: []string{"machine:<name>", "actor:<name>"}, fate: drop, arm: func(in *Injector, f Fault) {
		if name, ok := strings.CutPrefix(f.Site, "machine:"); ok {
			in.crashMachine(f, name)
			return
		}
		in.armRule(f)
	}},
	ClassMsgDrop:  {sites: msgSites, noun: "message", arm: (*Injector).armRule, fate: drop},
	ClassMsgDelay: {sites: msgSites, noun: "message", arm: (*Injector).armRule, fate: delay},
	ClassMsgDup:   {sites: msgSites, noun: "message", arm: (*Injector).armRule, fate: duplicate},

	ClassFSOffline: {sites: fsSites, arm: fsArm(func(fs *vfs.FileSystem, _ Fault, on bool) error {
		fs.SetOffline(on)
		return nil
	})},
	ClassDiskFull: {sites: fsSites, arm: fsArm(func(fs *vfs.FileSystem, f Fault, on bool) error {
		quota := int64(0)
		if on {
			// By default full right now: clamp to current usage, but at
			// least one byte, or SetQuota would mean "unlimited".
			quota = param(f, max(fs.Used(), 1))
		}
		fs.SetQuota(quota)
		return nil
	})},
	ClassPermission: {sites: fsSites, path: true, arm: fsArm(func(fs *vfs.FileSystem, f Fault, on bool) error {
		return fs.SetReadOnly(f.Path, on)
	})},
	ClassCorruptData: {sites: fsSites, path: true, arm: fsArm(func(fs *vfs.FileSystem, f Fault, on bool) error {
		n := 0
		if on {
			n = max(f.Count, 1)
		}
		return fs.CorruptNextReads(f.Path, n)
	})},

	ClassHeapExhaustion: {sites: machineSites, noun: "jvm", arm: jvmArm(func(cfg *jvm.Config, f Fault) {
		cfg.HeapLimit = param(f, 1)
	})},
	ClassMissingInstall: {sites: machineSites, noun: "jvm", arm: jvmArm(func(cfg *jvm.Config, _ Fault) {
		cfg.Broken = true
	})},
	ClassBadLibraryPath: {sites: machineSites, noun: "jvm", arm: jvmArm(func(cfg *jvm.Config, _ Fault) {
		cfg.BadLibraryPath = true
	})},

	ClassScheddCrash: {sites: []string{"schedd:<name>"}, arm: func(in *Injector, f Fault) {
		s := in.t.Schedds[siteName(f.Site)]
		in.window(f, "crash "+f.Site, "recover "+f.Site, s.Crash, func() {
			in.noteErr("recover "+f.Site, s.Recover(nil))
		})
	}},
	ClassLeaseExpiry: {sites: msgSites, arm: (*Injector).armRule, kind: "lease-renew", fate: drop},

	ClassPeerNegotiatorCrash: {sites: []string{"pool:<name>"}, fate: drop, arm: func(in *Injector, f Fault) {
		in.partitionPool(f)
	}},
	ClassPeerPoolCrash: {sites: []string{"pool:<name>"}, fate: drop, arm: func(in *Injector, f Fault) {
		for _, name := range in.partitionPool(f).Machines {
			in.crashMachine(f, name)
		}
	}},
	// 12 cuts "flock grant ..." mid-line, inside a field.
	ClassFlockReplyTruncate: {sites: msgSites, arm: (*Injector).armRule, kind: "flock-reply",
		fate: mutate(daemon.TruncateFlockReply, 12)},

	ClassEvictMidCkpt: {sites: machineSites, arm: func(in *Injector, f Fault) {
		sd := in.t.Startds[siteName(f.Site)]
		in.window(f, "evict "+f.Site, "owner-left "+f.Site, sd.Evict, sd.OwnerLeft)
	}},
	// 9 lands inside the job= digits: syntax and CRC both break.
	ClassCorruptCkpt: {sites: msgSites, arm: (*Injector).armRule, kind: "checkpoint",
		fate: mutate(daemon.CorruptCheckpoint, 9)},
	ClassRestartElsewhere: {sites: machineSites, arm: func(in *Injector, f Fault) {
		in.crashMachine(f, siteName(f.Site))
	}},
	ClassPreemptGrace: {sites: machineSites, arm: func(in *Injector, f Fault) {
		sd, grace := in.t.Startds[siteName(f.Site)], time.Duration(param(f, 1))*time.Millisecond
		in.window(f, fmt.Sprintf("shrink-grace %s to %s", f.Site, grace), "", func() { sd.SetVacateGrace(grace) }, nil)
	}},

	ClassMonitorStreamDrop: {sites: []string{"monitor:<name>"}, arm: func(in *Injector, f Fault) {
		mon := in.t.Monitors[siteName(f.Site)]
		in.t.Engine.After(f.At, func() {
			if f.Param > 0 {
				in.note("kill %s (%d sessions closed)", f.Site, mon.Kill())
				return
			}
			in.note("drop-subscribers %s (%d dropped)", f.Site, mon.DropSubscribers())
		})
	}},
	ClassDrainGraceExpiry: {sites: machineSites, arm: func(in *Injector, f Fault) {
		sd, grace := in.t.Startds[siteName(f.Site)], time.Duration(param(f, 1))*time.Millisecond
		in.window(f, fmt.Sprintf("drain %s (grace %s)", f.Site, grace), "resume "+f.Site, func() {
			sd.SetVacateGrace(grace)
			in.noteErr("drain "+f.Site, sd.Drain())
		}, sd.Resume)
	}},
}

// msgRule is one armed message-level fault.  Rules activate and
// deactivate on the virtual clock and expire after their match count.
type msgRule struct {
	f         Fault
	active    bool
	remaining int // matches left; -1 = unlimited
}

// Injector arms a scenario's faults against a pool.  Creating the
// injector installs its fault model on the bus; Apply schedules each
// fault on the virtual clock.  Everything the injector does is
// appended to Log, timestamped in virtual time, so two runs of the
// same scenario can be compared byte for byte.
type Injector struct {
	t     Targets
	rules []*msgRule
	log   []string
}

// New creates an injector over the targets and installs its fault
// model on the bus.
func New(t Targets) *Injector {
	in := &Injector{t: t}
	if t.Bus != nil {
		t.Bus.SetFaultFunc(in.busFault)
	}
	return in
}

// Log returns the injector's action trace: one line per arm, fire,
// and restore, in virtual-time order.
func (in *Injector) Log() []string { return in.log }

func (in *Injector) note(format string, args ...any) {
	in.log = append(in.log, fmt.Sprintf("%s ", in.t.Engine.Now())+fmt.Sprintf(format, args...))
}

// noteErr logs a failed action under what it was doing.
func (in *Injector) noteErr(doing string, err error) {
	if err != nil {
		in.note("%s: %v", doing, err)
	}
}

// Apply validates every fault in the scenario, then schedules them
// all relative to the current virtual time.  A scenario with any
// invalid fault is rejected whole — partial injection would make the
// trace lie about what was tested.
func (in *Injector) Apply(sc Scenario) error {
	for i, f := range sc.Faults {
		if err := in.check(f); err != nil {
			return fmt.Errorf("fault %d (%s at %s): %v", i, f.Class, f.Site, err)
		}
	}
	for _, f := range sc.Faults {
		simClasses[f.Class].arm(in, f)
	}
	return nil
}

// check validates one fault against its row and the targets without
// arming it.
func (in *Injector) check(f Fault) error {
	c, ok := simClasses[f.Class]
	if !ok {
		if ConnClass(f.Class) {
			return fmt.Errorf("connection-level class is injected with a Proxy on the live stack, not on the simulation bus")
		}
		return fmt.Errorf("unknown class")
	}
	for _, form := range c.sites {
		prefix := form[:strings.IndexByte(form, ':')+1]
		if name, ok := strings.CutPrefix(f.Site, prefix); ok {
			if err := in.t.resolve(prefix, name); err != nil {
				return err
			}
			if c.path && f.Path == "" {
				return fmt.Errorf("%s needs a path", f.Class)
			}
			return nil
		}
	}
	return fmt.Errorf("%s site must be %s", cmp.Or(c.noun, string(f.Class)), strings.Join(c.sites, " or "))
}

// resolve checks that the name after a site form's prefix names a
// target.  Actor, kind and pool sites arm message rules, so they also
// need the bus.
func (t Targets) resolve(prefix, name string) error {
	missing := ""
	switch prefix {
	case "machine:":
		if _, ok := t.Startds[name]; !ok {
			missing = "machine"
		}
	case "schedd:":
		if _, ok := t.Schedds[name]; !ok {
			missing = "schedd"
		}
	case "pool:":
		if _, ok := t.Pools[name]; !ok {
			missing = "federated pool"
		}
	case "monitor:":
		if _, ok := t.Monitors[name]; !ok {
			missing = "monitor"
		}
	case "":
		if _, ok := t.FileSystems[name]; !ok {
			missing = "file system registered as"
		}
	}
	if missing != "" {
		return fmt.Errorf("no %s %q", missing, name)
	}
	if t.Bus == nil && (prefix == "actor:" || prefix == "kind:" || prefix == "pool:") {
		return fmt.Errorf("no bus")
	}
	return nil
}

// siteName is the name after a site's form prefix.
func siteName(site string) string {
	_, name, _ := strings.Cut(site, ":")
	return name
}

// param is the fault's Param, or def when it is unset.
func param(f Fault, def int64) int64 {
	if f.Param <= 0 {
		return def
	}
	return f.Param
}

// window runs up at f.At and, when the fault has a duration, down at
// f.At+f.For, logging each note as it fires.
func (in *Injector) window(f Fault, onNote, offNote string, up, down func()) {
	in.t.Engine.After(f.At, func() {
		in.note("%s", onNote)
		up()
	})
	if f.For > 0 && down != nil {
		in.t.Engine.After(f.At+f.For, func() {
			in.note("%s", offNote)
			down()
		})
	}
}

// crashMachine crashes the named machine mid-protocol and restarts it
// when the window closes.
func (in *Injector) crashMachine(f Fault, name string) {
	sd, site := in.t.Startds[name], "machine:"+name
	in.window(f, "crash "+site, "restart "+site, sd.Crash, sd.Restart)
}

// partitionPool partitions a federated pool's matchmaker.  The
// negotiator is partitioned, not deleted: ads, pings, and queries to
// it vanish in flight, and it rebuilds from the periodic ads when the
// window closes.
func (in *Injector) partitionPool(f Fault) PoolMembers {
	pm := in.t.Pools[siteName(f.Site)]
	f.Site = "actor:" + pm.Matchmaker
	in.armRule(f)
	return pm
}

// armRule arms one message-level rule for the fault's window.
func (in *Injector) armRule(f Fault) {
	r := &msgRule{f: f, remaining: -1}
	if f.Count > 0 {
		r.remaining = f.Count
	}
	in.rules = append(in.rules, r)
	tag := fmt.Sprintf("%s %s", f.Class, f.Site)
	in.window(f, "arm "+tag, "disarm "+tag, func() { r.active = true }, func() { r.active = false })
}

// fsArm arms a file-system class from set, which injects the fault
// with on and restores the file system without; an error is logged.
func fsArm(set func(fs *vfs.FileSystem, f Fault, on bool) error) func(*Injector, Fault) {
	return func(in *Injector, f Fault) {
		fs := in.t.FileSystems[f.Site]
		on, off := fmt.Sprintf("inject %s %s", f.Class, f.Site), fmt.Sprintf("restore %s %s", f.Class, f.Site)
		in.window(f, on, off,
			func() { in.noteErr(on, set(fs, f, true)) },
			func() { in.noteErr(off, set(fs, f, false)) })
	}
}

// jvmArm arms a JVM degradation, restoring the machine's installation
// as it was when the fault fired.
func jvmArm(degrade func(cfg *jvm.Config, f Fault)) func(*Injector, Fault) {
	return func(in *Injector, f Fault) {
		sd := in.t.Startds[siteName(f.Site)]
		var orig jvm.Config
		in.window(f, fmt.Sprintf("inject %s %s", f.Class, f.Site), fmt.Sprintf("restore %s %s", f.Class, f.Site), func() {
			orig = sd.Machine().Config()
			cfg := orig
			degrade(&cfg, f)
			sd.SetJVMConfig(cfg)
		}, func() { sd.SetJVMConfig(orig) })
	}
}

// The message fates.  Drops from any rule compound, delays and
// duplicate counts add, and mutations chain in rule order.
func drop(_ Fault, out *sim.Fault) { out.Drop = true }

func delay(f Fault, out *sim.Fault) { out.Delay += time.Duration(param(f, 1000)) * time.Millisecond }

func duplicate(f Fault, out *sim.Fault) { out.Duplicates += int(param(f, 1)) }

// mutate is the fate that rewrites the body with fn(body, n), n being
// Param or def.
func mutate(fn func(body any, n int) any, def int64) func(Fault, *sim.Fault) {
	return func(f Fault, out *sim.Fault) {
		n, prev := int(param(f, def)), out.Mutate
		out.Mutate = func(body any) any {
			if prev != nil {
				body = prev(body)
			}
			return fn(body, n)
		}
	}
}

// busFault is the injector's sim.FaultFunc: the combined fate of one
// message under every active rule.
func (in *Injector) busFault(m sim.Message) sim.Fault {
	var out sim.Fault
	for _, r := range in.rules {
		if !r.active || r.remaining == 0 || !siteMatches(r.f.Site, m) {
			continue
		}
		c := simClasses[r.f.Class]
		if c.kind != "" && m.Kind != c.kind {
			continue
		}
		if r.remaining > 0 {
			r.remaining--
			if r.remaining == 0 {
				r.active = false
			}
		}
		c.fate(r.f, &out)
	}
	return out
}

// siteMatches reports whether a message-level site selects m.  An
// actor name ending in ":" prefix-matches, so "actor:shadow:" hits
// every shadow and "actor:starter:" every starter.
func siteMatches(site string, m sim.Message) bool {
	if kind, ok := strings.CutPrefix(site, "kind:"); ok {
		return m.Kind == kind
	}
	if name, ok := strings.CutPrefix(site, "actor:"); ok {
		if strings.HasSuffix(name, ":") {
			return strings.HasPrefix(m.From, name) || strings.HasPrefix(m.To, name)
		}
		return m.From == name || m.To == name
	}
	return false
}
