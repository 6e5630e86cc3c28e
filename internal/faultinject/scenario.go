// Package faultinject is the deterministic fault-injection engine for
// the grid.  A Scenario names faults by (class, site, trigger); an
// Injector arms them against a simulated pool — daemon crash and
// restart, message drop/delay/duplication on the bus, disk and
// permission failures in the submit and scratch file systems, and JVM
// degradation on execution machines; a Proxy arms the two
// connection-level classes (reset, mid-stream truncation) against the
// live Chirp / remote-I/O stack, where a real TCP connection exists to
// be broken.
//
// Everything is deterministic: given the same scenario and seed, the
// injector fires the same faults at the same virtual instants, the
// simulation delivers the same messages, and the injector's Log is
// byte-identical run to run.  That determinism is what makes the
// fault-sweep conformance harness (cmd/experiments -run fault-sweep)
// a regression test rather than a flake generator: every error class
// at every injection site must produce the scope classification and
// disposition the paper mandates, and the whole trace is hashed.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/errscope/grid/internal/record"
)

// Class names one kind of failure.  The set covers every boundary in
// the paper's Figures 1–3: process and daemon death, the network
// between daemons, the file systems at both ends, and the Java
// execution environment itself.
type Class string

// Fault classes.
const (
	// ClassCrash takes a site down.  For a machine site the startd
	// and its starter vanish mid-protocol (and restart after For);
	// for a daemon site the daemon is partitioned — every message to
	// or from it is lost for the window, which models a crash with a
	// persistent-state restart: a schedd keeps its job-queue log, a
	// matchmaker rebuilds from the periodic ads.
	ClassCrash Class = "crash"
	// ClassMsgDrop silently loses matching messages.
	ClassMsgDrop Class = "msg-drop"
	// ClassMsgDelay adds Param milliseconds (default 1000) to the
	// delivery latency of matching messages.
	ClassMsgDelay Class = "msg-delay"
	// ClassMsgDup delivers Param extra copies (default 1) of
	// matching messages.
	ClassMsgDup Class = "msg-dup"
	// ClassFSOffline takes a file system down entirely.
	ClassFSOffline Class = "fs-offline"
	// ClassDiskFull clamps a file system's quota to Param bytes
	// (default: its current usage, i.e. full immediately).
	ClassDiskFull Class = "disk-full"
	// ClassPermission makes Path on the file system read-only.
	ClassPermission Class = "permission"
	// ClassCorruptData flips bits in the next Count (default 1)
	// reads of Path on the file system.
	ClassCorruptData Class = "corrupt-data"
	// ClassHeapExhaustion clamps a machine's JVM heap to Param bytes
	// (default 1), so any allocating job dies of OutOfMemoryError.
	ClassHeapExhaustion Class = "heap-exhaustion"
	// ClassMissingInstall breaks a machine's Java installation so
	// the JVM cannot start at all.
	ClassMissingInstall Class = "missing-installation"
	// ClassBadLibraryPath corrupts a machine's Java standard
	// library, so the JVM starts but the program dies loading it.
	ClassBadLibraryPath Class = "bad-library-path"
	// ClassScheddCrash kills a schedd process mid-protocol: its
	// shadows die with it, its timers are lost, and after For it
	// restarts by replaying its write-ahead journal (site
	// schedd:<name>).  Unlike ClassCrash's actor partition, this is a
	// real process death — transient state is destroyed and only the
	// journal survives.
	ClassScheddCrash Class = "schedd-crash"
	// ClassLeaseExpiry silently drops claim-lease renewals matching
	// the site, so the execute side concludes the submit side is dead
	// and releases the claim even though the shadow still runs.
	ClassLeaseExpiry Class = "lease-expiry"
	// ClassConnReset aborts a live TCP connection with an RST after
	// Param bytes (default 1) have flowed toward the client.
	// Injected by Proxy, not by the simulation Injector.
	ClassConnReset Class = "conn-reset"
	// ClassConnTruncate quietly closes a live TCP connection after
	// Param bytes toward the client — mid-stream truncation.
	// Injected by Proxy, not by the simulation Injector.
	ClassConnTruncate Class = "conn-truncate"
	// ClassFrameCorrupt flips one payload byte in the Param-th frame
	// (default 1) toward the client on the binary wire; the frame
	// checksum catches it.  Injected by Proxy.
	ClassFrameCorrupt Class = "frame-corrupt"
	// ClassFrameTruncate forwards only the header of the Param-th
	// frame toward the client, then cuts the connection — a frame cut
	// mid-flight.  Injected by Proxy.
	ClassFrameTruncate Class = "frame-truncate"
	// ClassMACFailure flips one payload byte in the Param-th frame
	// toward the client and repairs the frame checksum, so the
	// corruption penetrates to the AEAD layer of a secure session and
	// fails the MAC.  Injected by Proxy.
	ClassMACFailure Class = "mac-failure"
	// ClassFrameReplay delivers the Param-th frame toward the client
	// twice; the session's sequence counter rejects the second copy.
	// Injected by Proxy.
	ClassFrameReplay Class = "frame-replay"
	// ClassKeyExpiry exhausts a secure session's sealed-frame budget
	// (client-side RekeyAfter or the server's ExpireSessionKeys hook)
	// — a deterministic frame-count budget, never wall time.  Armed
	// by the session configuration, not by Proxy or Injector.
	ClassKeyExpiry Class = "key-expiry"
	// ClassPeerNegotiatorCrash partitions a federated pool's
	// matchmaker (site pool:<name>): flock pings go unanswered, jobs
	// advertised there get no negotiation, and the silence is
	// discovered by time — the coordinator's liveness window and the
	// schedds' pacing clocks — never by a message.
	ClassPeerNegotiatorCrash Class = "peer-negotiator-crash"
	// ClassPeerPoolCrash takes a whole federated pool down (site
	// pool:<name>): the matchmaker is partitioned and every machine
	// crashes mid-protocol.  A job flocked there loses only its remote
	// claim — a remote-resource-scope error that requeues it at home
	// with zero loss.  After For the machines restart and the
	// partition lifts.
	ClassPeerPoolCrash Class = "peer-pool-crash"
	// ClassFlockReplyTruncate truncates the flock-codec payload of
	// matching flock-reply messages to Param bytes (default 12) — the
	// one wire that crosses pool-administration boundaries, cut
	// mid-line.  The schedd scopes the parse failure as a network
	// error confined to that exchange.
	ClassFlockReplyTruncate Class = "flock-reply-truncate"
	// ClassEvictMidCkpt has a machine's owner return between the
	// job's periodic checkpoints (site machine:<name>): the eviction
	// forfeits the progress since the last commit but nothing more.
	// After For the owner leaves and the machine rejoins the pool.
	ClassEvictMidCkpt Class = "eviction-mid-checkpoint"
	// ClassCorruptCkpt flips one byte (index Param, default 9) of each
	// matching checkpoint payload in transit.  The shadow's CRC check
	// rejects the record — a network-scope error confined to that
	// record — and the previous committed checkpoint still stands.
	ClassCorruptCkpt Class = "corrupt-checkpoint"
	// ClassRestartElsewhere crashes a running job's machine (site
	// machine:<name>) and restarts it after For: the job's journaled
	// checkpoints let it resume on a different machine with rework
	// bounded by the checkpoint interval.
	ClassRestartElsewhere Class = "restart-different-machine"
	// ClassPreemptGrace shrinks a machine's vacate grace window to
	// Param milliseconds (default 1) at time At (site machine:<name>),
	// so a later preemption expires the window before the final
	// checkpoint ships and the incumbent falls back to its last
	// periodic commit.
	ClassPreemptGrace Class = "preempt-grace-expiry"
	// ClassMonitorStreamDrop severs the ops plane mid-stream (site
	// monitor:<name>): every subscriber session closes at At, and with
	// Param > 0 the monitor daemon itself is killed.  The defining
	// property is what does NOT happen — the pool's dispositions and
	// trace are byte-identical to an unperturbed run, because the
	// monitor's failure scope ends at its own sessions.
	ClassMonitorStreamDrop Class = "monitor-stream-drop"
	// ClassDrainGraceExpiry drains a machine (site machine:<name>)
	// after shrinking its vacate grace to Param milliseconds (default
	// 1): the admin drain's grace window expires before the final
	// checkpoint ships and the resident falls back to its last
	// periodic commit, resuming elsewhere.  A Param generous enough
	// for the checkpoint ship (clean drain) loses nothing.  After For
	// the machine is resumed back into the pool.
	ClassDrainGraceExpiry Class = "drain-grace-expiry"
)

// Classes lists every fault class, in a fixed order the sweep
// harness enumerates.  New classes append: the order is part of the
// golden-trace contract.
var Classes = []Class{
	ClassCrash, ClassMsgDrop, ClassMsgDelay, ClassMsgDup,
	ClassFSOffline, ClassDiskFull, ClassPermission, ClassCorruptData,
	ClassHeapExhaustion, ClassMissingInstall, ClassBadLibraryPath,
	ClassScheddCrash, ClassLeaseExpiry,
	ClassConnReset, ClassConnTruncate,
	ClassFrameCorrupt, ClassFrameTruncate, ClassMACFailure,
	ClassFrameReplay, ClassKeyExpiry,
	ClassPeerNegotiatorCrash, ClassPeerPoolCrash, ClassFlockReplyTruncate,
	ClassEvictMidCkpt, ClassCorruptCkpt, ClassRestartElsewhere, ClassPreemptGrace,
	ClassMonitorStreamDrop, ClassDrainGraceExpiry,
}

func validClass(c Class) bool {
	for _, k := range Classes {
		if c == k {
			return true
		}
	}
	return false
}

// ConnClass reports whether the class is connection-level — injected
// on the live stack (by a Proxy, or for key expiry by the session
// configuration) rather than by the Injector on the simulation bus.
func ConnClass(c Class) bool {
	switch c {
	case ClassConnReset, ClassConnTruncate,
		ClassFrameCorrupt, ClassFrameTruncate, ClassMACFailure,
		ClassFrameReplay, ClassKeyExpiry:
		return true
	}
	return false
}

// Fault is one injectable failure: a class, the site it strikes, and
// its trigger.  The zero trigger fires at scenario-application time
// and never recovers.
type Fault struct {
	Class Class
	// Site addresses the injection point:
	//
	//	machine:<name>  a startd and its JVM (crash, jvm classes)
	//	actor:<name>    a daemon on the bus (crash-as-partition);
	//	                a trailing colon prefix-matches, so
	//	                actor:shadow: hits every shadow
	//	kind:<kind>     every bus message of that kind (msg classes)
	//	<fs-key>        a file system registered in Targets (fs classes)
	Site string
	// Path targets a file within a file-system site (permission,
	// corrupt-data).
	Path string
	// At is virtual time from scenario application to injection.
	At time.Duration
	// For is how long the fault lasts; 0 means forever.  Message
	// faults deactivate, machines restart, file systems and JVMs
	// are restored to their pre-fault configuration.
	For time.Duration
	// Count limits message faults to the first Count matches, and
	// sets the read count for corrupt-data; 0 means unlimited
	// (corrupt-data: 1).
	Count int
	// Param is the class-specific magnitude: delay milliseconds,
	// duplicate copies, quota bytes, heap bytes, connection byte
	// budget.
	Param int64
}

// Scenario is a seeded set of faults — the unit the sweep enumerates
// and the unit an operator writes by hand.
type Scenario struct {
	// Seed drives the pool the scenario runs against; equal seeds
	// and equal faults give byte-equal traces.
	Seed   int64
	Faults []Fault
}

// Encode renders the scenario in its line format:
//
//	seed = 7
//	fault class=crash site=machine:c001 at=5m0s for=2h0m0s
//	fault class=permission site=submit path="/home/user/out" at=1m0s
//
// Fields appear in a fixed order and zero-valued trigger fields are
// omitted; the path is always quoted, a site only when it is not a
// bare token.  So Encode is a canonical form: Parse(Encode(s)) == s,
// and Encode(Parse(Encode(s))) is byte-identical to Encode(s).
func (s Scenario) Encode() string {
	b := strconv.AppendInt([]byte("seed = "), s.Seed, 10)
	for _, f := range s.Faults {
		b = append(append(b, "\nfault class="...), f.Class...)
		if bare(f.Site) {
			b = append(append(b, " site="...), f.Site...)
		} else {
			b = record.AppendStr(b, "site", f.Site)
		}
		if f.Path != "" {
			b = record.AppendStr(b, "path", f.Path)
		}
		if f.At != 0 {
			b = append(append(b, " at="...), f.At.String()...)
		}
		if f.For != 0 {
			b = append(append(b, " for="...), f.For.String()...)
		}
		if f.Count != 0 {
			b = record.AppendInt(b, "count", int64(f.Count))
		}
		if f.Param != 0 {
			b = record.AppendInt(b, "param", f.Param)
		}
	}
	return string(append(b, '\n'))
}

// bare reports whether v reads back unquoted as itself: printable
// ASCII with no space and no quote.  The empty site stays bare too, so
// a scenario missing its site encodes as it always did.
func bare(v string) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c <= ' ' || c > '~' || c == '"' {
			return false
		}
	}
	return true
}

// Parse reads the line format produced by Encode.  Blank lines and
// #-comments are ignored.
func Parse(text string) (Scenario, error) {
	var s Scenario
	var c record.Cursor
	seenSeed := false
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lineNo := i + 1
		if k, v, ok := strings.Cut(line, "="); ok && strings.TrimSpace(k) == "seed" {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return s, fmt.Errorf("line %d: bad seed %q", lineNo, strings.TrimSpace(v))
			}
			s.Seed = n
			seenSeed = true
			continue
		}
		rest, ok := strings.CutPrefix(line, "fault ")
		if !ok {
			return s, fmt.Errorf("line %d: expected \"seed = N\" or \"fault ...\", got %q", lineNo, line)
		}
		f, err := parseFault(&c, rest)
		if err != nil {
			return s, fmt.Errorf("line %d: %v", lineNo, err)
		}
		s.Faults = append(s.Faults, f)
	}
	if !seenSeed {
		return s, fmt.Errorf("scenario has no \"seed = N\" line")
	}
	return s, nil
}

// parseFault reads the key=value fields after the "fault " keyword in
// the journal grammar of package record: any order, the last of two
// equal keys wins — but every key must be known.  A value is bare or
// quoted as a whole; a quote anywhere else is an error.
func parseFault(c *record.Cursor, rest string) (Fault, error) {
	var f Fault
	if err := c.Scan([]byte(strings.TrimSpace(rest))); err != nil {
		return f, fmt.Errorf("fields are not key=value: %v", err)
	}
	for i := 0; i < c.Len(); i++ {
		k, raw := c.Field(i)
		key, val := string(k), string(raw)
		if strings.HasPrefix(val, `"`) {
			if val = c.Unquote(key, raw); c.Err != nil {
				return f, c.Err
			}
		} else if strings.Contains(val, `"`) {
			return f, fmt.Errorf("field %s=%s: a quote must open the value", key, val)
		}
		var err error
		switch key {
		case "class":
			f.Class = Class(val)
		case "site":
			f.Site = val
		case "path":
			f.Path = val
		case "at":
			f.At, err = time.ParseDuration(val)
		case "for":
			f.For, err = time.ParseDuration(val)
		case "count":
			f.Count, err = strconv.Atoi(val)
		case "param":
			f.Param, err = strconv.ParseInt(val, 10, 64)
		default:
			return f, fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return f, fmt.Errorf("bad %s %q: %v", key, val, err)
		}
	}
	if !validClass(f.Class) {
		return f, fmt.Errorf("unknown fault class %q", f.Class)
	}
	if f.Site == "" {
		return f, fmt.Errorf("fault %s has no site", f.Class)
	}
	if f.At < 0 || f.For < 0 || f.Count < 0 {
		return f, fmt.Errorf("fault %s: negative trigger", f.Class)
	}
	return f, nil
}
