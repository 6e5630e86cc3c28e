package faultinject

import (
	"fmt"
	"maps"
	"strings"
	"time"

	"github.com/errscope/grid/internal/daemon"
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
		in.schedule(f)
	}
	return nil
}

// check validates one fault against the targets without arming it.
func (in *Injector) check(f Fault) error {
	if !validClass(f.Class) {
		return fmt.Errorf("unknown class")
	}
	if ConnClass(f.Class) {
		return fmt.Errorf("connection-level class is injected with a Proxy on the live stack, not on the simulation bus")
	}
	switch f.Class {
	case ClassCrash:
		if name, ok := strings.CutPrefix(f.Site, "machine:"); ok {
			if _, ok := in.t.Startds[name]; !ok {
				return fmt.Errorf("no machine %q", name)
			}
			return nil
		}
		if _, ok := strings.CutPrefix(f.Site, "actor:"); ok {
			if in.t.Bus == nil {
				return fmt.Errorf("no bus to partition")
			}
			return nil
		}
		return fmt.Errorf("crash site must be machine:<name> or actor:<name>")
	case ClassMsgDrop, ClassMsgDelay, ClassMsgDup:
		if in.t.Bus == nil {
			return fmt.Errorf("no bus")
		}
		if !strings.HasPrefix(f.Site, "kind:") && !strings.HasPrefix(f.Site, "actor:") {
			return fmt.Errorf("message site must be kind:<kind> or actor:<name>")
		}
		return nil
	case ClassFSOffline, ClassDiskFull, ClassPermission, ClassCorruptData:
		if _, ok := in.t.FileSystems[f.Site]; !ok {
			return fmt.Errorf("no file system registered as %q", f.Site)
		}
		if (f.Class == ClassPermission || f.Class == ClassCorruptData) && f.Path == "" {
			return fmt.Errorf("%s needs a path", f.Class)
		}
		return nil
	case ClassHeapExhaustion, ClassMissingInstall, ClassBadLibraryPath:
		name, ok := strings.CutPrefix(f.Site, "machine:")
		if !ok {
			return fmt.Errorf("jvm site must be machine:<name>")
		}
		if _, ok := in.t.Startds[name]; !ok {
			return fmt.Errorf("no machine %q", name)
		}
		return nil
	case ClassScheddCrash:
		name, ok := strings.CutPrefix(f.Site, "schedd:")
		if !ok {
			return fmt.Errorf("schedd-crash site must be schedd:<name>")
		}
		if _, ok := in.t.Schedds[name]; !ok {
			return fmt.Errorf("no schedd %q", name)
		}
		return nil
	case ClassLeaseExpiry:
		if in.t.Bus == nil {
			return fmt.Errorf("no bus")
		}
		if !strings.HasPrefix(f.Site, "kind:") && !strings.HasPrefix(f.Site, "actor:") {
			return fmt.Errorf("lease-expiry site must be kind:<kind> or actor:<name>")
		}
		return nil
	case ClassPeerNegotiatorCrash, ClassPeerPoolCrash:
		name, ok := strings.CutPrefix(f.Site, "pool:")
		if !ok {
			return fmt.Errorf("%s site must be pool:<name>", f.Class)
		}
		if _, ok := in.t.Pools[name]; !ok {
			return fmt.Errorf("no federated pool %q", name)
		}
		if in.t.Bus == nil {
			return fmt.Errorf("no bus to partition")
		}
		return nil
	case ClassFlockReplyTruncate:
		if in.t.Bus == nil {
			return fmt.Errorf("no bus")
		}
		if !strings.HasPrefix(f.Site, "kind:") && !strings.HasPrefix(f.Site, "actor:") {
			return fmt.Errorf("flock-reply-truncate site must be kind:<kind> or actor:<name>")
		}
		return nil
	case ClassEvictMidCkpt, ClassRestartElsewhere, ClassPreemptGrace:
		name, ok := strings.CutPrefix(f.Site, "machine:")
		if !ok {
			return fmt.Errorf("%s site must be machine:<name>", f.Class)
		}
		if _, ok := in.t.Startds[name]; !ok {
			return fmt.Errorf("no machine %q", name)
		}
		return nil
	case ClassCorruptCkpt:
		if in.t.Bus == nil {
			return fmt.Errorf("no bus")
		}
		if !strings.HasPrefix(f.Site, "kind:") && !strings.HasPrefix(f.Site, "actor:") {
			return fmt.Errorf("corrupt-checkpoint site must be kind:<kind> or actor:<name>")
		}
		return nil
	case ClassMonitorStreamDrop:
		name, ok := strings.CutPrefix(f.Site, "monitor:")
		if !ok {
			return fmt.Errorf("monitor-stream-drop site must be monitor:<name>")
		}
		if _, ok := in.t.Monitors[name]; !ok {
			return fmt.Errorf("no monitor %q", name)
		}
		return nil
	case ClassDrainGraceExpiry:
		name, ok := strings.CutPrefix(f.Site, "machine:")
		if !ok {
			return fmt.Errorf("drain-grace-expiry site must be machine:<name>")
		}
		if _, ok := in.t.Startds[name]; !ok {
			return fmt.Errorf("no machine %q", name)
		}
		return nil
	}
	return fmt.Errorf("unhandled class")
}

// schedule arms one validated fault on the virtual clock.
func (in *Injector) schedule(f Fault) {
	switch f.Class {
	case ClassCrash:
		if name, ok := strings.CutPrefix(f.Site, "machine:"); ok {
			sd := in.t.Startds[name]
			in.t.Engine.After(f.At, func() {
				in.note("crash %s", f.Site)
				sd.Crash()
			})
			if f.For > 0 {
				in.t.Engine.After(f.At+f.For, func() {
					in.note("restart %s", f.Site)
					sd.Restart()
				})
			}
			return
		}
		// Daemon crash: a partition window dropping every message
		// to or from the actor.
		in.armRule(f)
	case ClassMsgDrop, ClassMsgDelay, ClassMsgDup:
		in.armRule(f)
	case ClassFSOffline, ClassDiskFull, ClassPermission, ClassCorruptData:
		in.scheduleFS(f)
	case ClassHeapExhaustion, ClassMissingInstall, ClassBadLibraryPath:
		in.scheduleJVM(f)
	case ClassScheddCrash:
		name := strings.TrimPrefix(f.Site, "schedd:")
		s := in.t.Schedds[name]
		in.t.Engine.After(f.At, func() {
			in.note("crash %s", f.Site)
			s.Crash()
		})
		if f.For > 0 {
			in.t.Engine.After(f.At+f.For, func() {
				in.note("recover %s", f.Site)
				if err := s.Recover(nil); err != nil {
					in.note("recover %s: %v", f.Site, err)
				}
			})
		}
	case ClassLeaseExpiry:
		in.armRule(f)
	case ClassPeerNegotiatorCrash:
		// The negotiator is partitioned, not deleted: ads, pings, and
		// queries to it vanish in flight, and it rebuilds from the
		// periodic ads when the window closes.
		pm := in.t.Pools[strings.TrimPrefix(f.Site, "pool:")]
		fr := f
		fr.Site = "actor:" + pm.Matchmaker
		in.armRule(fr)
	case ClassPeerPoolCrash:
		pm := in.t.Pools[strings.TrimPrefix(f.Site, "pool:")]
		fr := f
		fr.Site = "actor:" + pm.Matchmaker
		in.armRule(fr)
		for _, name := range pm.Machines {
			sd := in.t.Startds[name]
			in.t.Engine.After(f.At, func() {
				in.note("crash machine:%s", sd.Name())
				sd.Crash()
			})
			if f.For > 0 {
				in.t.Engine.After(f.At+f.For, func() {
					in.note("restart machine:%s", sd.Name())
					sd.Restart()
				})
			}
		}
	case ClassFlockReplyTruncate:
		in.armRule(f)
	case ClassEvictMidCkpt:
		sd := in.t.Startds[strings.TrimPrefix(f.Site, "machine:")]
		in.t.Engine.After(f.At, func() {
			in.note("evict %s", f.Site)
			sd.Evict()
		})
		if f.For > 0 {
			in.t.Engine.After(f.At+f.For, func() {
				in.note("owner-left %s", f.Site)
				sd.OwnerLeft()
			})
		}
	case ClassRestartElsewhere:
		sd := in.t.Startds[strings.TrimPrefix(f.Site, "machine:")]
		in.t.Engine.After(f.At, func() {
			in.note("crash %s", f.Site)
			sd.Crash()
		})
		if f.For > 0 {
			in.t.Engine.After(f.At+f.For, func() {
				in.note("restart %s", f.Site)
				sd.Restart()
			})
		}
	case ClassPreemptGrace:
		sd := in.t.Startds[strings.TrimPrefix(f.Site, "machine:")]
		in.t.Engine.After(f.At, func() {
			grace := time.Duration(f.Param) * time.Millisecond
			if grace <= 0 {
				grace = time.Millisecond
			}
			in.note("shrink-grace %s to %s", f.Site, grace)
			sd.SetVacateGrace(grace)
		})
	case ClassCorruptCkpt:
		in.armRule(f)
	case ClassMonitorStreamDrop:
		mon := in.t.Monitors[strings.TrimPrefix(f.Site, "monitor:")]
		in.t.Engine.After(f.At, func() {
			if f.Param > 0 {
				n := mon.Kill()
				in.note("kill %s (%d sessions closed)", f.Site, n)
				return
			}
			n := mon.DropSubscribers()
			in.note("drop-subscribers %s (%d dropped)", f.Site, n)
		})
	case ClassDrainGraceExpiry:
		sd := in.t.Startds[strings.TrimPrefix(f.Site, "machine:")]
		in.t.Engine.After(f.At, func() {
			grace := time.Duration(f.Param) * time.Millisecond
			if grace <= 0 {
				grace = time.Millisecond
			}
			in.note("drain %s (grace %s)", f.Site, grace)
			sd.SetVacateGrace(grace)
			if err := sd.Drain(); err != nil {
				in.note("drain %s: %v", f.Site, err)
			}
		})
		if f.For > 0 {
			in.t.Engine.After(f.At+f.For, func() {
				in.note("resume %s", f.Site)
				sd.Resume()
			})
		}
	}
}

// armRule schedules activation and expiry of one message-level rule.
func (in *Injector) armRule(f Fault) {
	r := &msgRule{f: f, remaining: -1}
	if f.Count > 0 {
		r.remaining = f.Count
	}
	in.rules = append(in.rules, r)
	in.t.Engine.After(f.At, func() {
		in.note("arm %s %s", f.Class, f.Site)
		r.active = true
	})
	if f.For > 0 {
		in.t.Engine.After(f.At+f.For, func() {
			in.note("disarm %s %s", f.Class, f.Site)
			r.active = false
		})
	}
}

// scheduleFS arms one file-system fault, restoring the pre-fault
// state after the window.
func (in *Injector) scheduleFS(f Fault) {
	fs := in.t.FileSystems[f.Site]
	in.t.Engine.After(f.At, func() {
		in.note("inject %s %s", f.Class, f.Site)
		switch f.Class {
		case ClassFSOffline:
			fs.SetOffline(true)
		case ClassDiskFull:
			quota := f.Param
			if quota <= 0 {
				// Full right now: clamp to current usage, but at
				// least one byte or SetQuota would mean "unlimited".
				quota = fs.Used()
				if quota <= 0 {
					quota = 1
				}
			}
			fs.SetQuota(quota)
		case ClassPermission:
			if err := fs.SetReadOnly(f.Path, true); err != nil {
				in.note("inject %s %s: %v", f.Class, f.Site, err)
			}
		case ClassCorruptData:
			n := f.Count
			if n <= 0 {
				n = 1
			}
			if err := fs.CorruptNextReads(f.Path, n); err != nil {
				in.note("inject %s %s: %v", f.Class, f.Site, err)
			}
		}
	})
	if f.For > 0 {
		in.t.Engine.After(f.At+f.For, func() {
			in.note("restore %s %s", f.Class, f.Site)
			switch f.Class {
			case ClassFSOffline:
				fs.SetOffline(false)
			case ClassDiskFull:
				fs.SetQuota(0)
			case ClassPermission:
				if err := fs.SetReadOnly(f.Path, false); err != nil {
					in.note("restore %s %s: %v", f.Class, f.Site, err)
				}
			}
		})
	}
}

// scheduleJVM arms one JVM degradation, restoring the original
// installation after the window.
func (in *Injector) scheduleJVM(f Fault) {
	name := strings.TrimPrefix(f.Site, "machine:")
	sd := in.t.Startds[name]
	in.t.Engine.After(f.At, func() {
		in.note("inject %s %s", f.Class, f.Site)
		orig := sd.Machine().Config()
		cfg := orig
		switch f.Class {
		case ClassHeapExhaustion:
			cfg.HeapLimit = f.Param
			if cfg.HeapLimit <= 0 {
				cfg.HeapLimit = 1
			}
		case ClassMissingInstall:
			cfg.Broken = true
		case ClassBadLibraryPath:
			cfg.BadLibraryPath = true
		}
		sd.SetJVMConfig(cfg)
		if f.For > 0 {
			in.t.Engine.After(f.For, func() {
				in.note("restore %s %s", f.Class, f.Site)
				sd.SetJVMConfig(orig)
			})
		}
	})
}

// busFault is the injector's sim.FaultFunc: the combined fate of one
// message under every active rule.  Drops from any rule compound;
// delays and duplicate counts add.
func (in *Injector) busFault(m sim.Message) sim.Fault {
	var out sim.Fault
	for _, r := range in.rules {
		if !r.active || r.remaining == 0 || !siteMatches(r.f.Site, m) {
			continue
		}
		// A lease-expiry rule targets only the renewal pulse, whatever
		// actor its site matched; other traffic must pass before the
		// rule's match budget is spent.
		if r.f.Class == ClassLeaseExpiry && m.Kind != "lease-renew" {
			continue
		}
		// Likewise a flock-reply-truncate rule cuts only the flock
		// codec's wire, even when its site is an actor.
		if r.f.Class == ClassFlockReplyTruncate && m.Kind != "flock-reply" {
			continue
		}
		// And a corrupt-checkpoint rule damages only checkpoint
		// payloads.
		if r.f.Class == ClassCorruptCkpt && m.Kind != "checkpoint" {
			continue
		}
		if r.remaining > 0 {
			r.remaining--
			if r.remaining == 0 {
				r.active = false
			}
		}
		switch r.f.Class {
		case ClassCrash, ClassMsgDrop, ClassLeaseExpiry,
			ClassPeerNegotiatorCrash, ClassPeerPoolCrash:
			out.Drop = true
		case ClassFlockReplyTruncate:
			n := int(r.f.Param)
			if n <= 0 {
				n = 12 // mid-line: cuts "flock grant ..." inside a field
			}
			prev := out.Mutate
			out.Mutate = func(body any) any {
				if prev != nil {
					body = prev(body)
				}
				return daemon.TruncateFlockReply(body, n)
			}
		case ClassCorruptCkpt:
			n := int(r.f.Param)
			if n <= 0 {
				n = 9 // inside the job= digits: syntax and CRC both break
			}
			prev := out.Mutate
			out.Mutate = func(body any) any {
				if prev != nil {
					body = prev(body)
				}
				return daemon.CorruptCheckpoint(body, n)
			}
		case ClassMsgDelay:
			d := time.Duration(r.f.Param) * time.Millisecond
			if d <= 0 {
				d = time.Second
			}
			out.Delay += d
		case ClassMsgDup:
			n := int(r.f.Param)
			if n <= 0 {
				n = 1
			}
			out.Duplicates += n
		}
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
