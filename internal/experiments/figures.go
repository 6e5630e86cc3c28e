package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/javaio"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/remoteio"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wrapper"
)

// Figure1 walks one job through the Condor kernel protocols and
// reports each protocol step in order: matchmaking, claiming, and the
// shadow/starter exchange of Figure 1.
func Figure1() *Report {
	r := &Report{
		ID:      "figure1",
		Title:   "The Condor Kernel: one job through the protocols",
		Headers: []string{"t(virtual)", "message", "protocol"},
	}
	protocols := map[string]string{
		"advertise":     "matchmaking",
		"match-notify":  "matchmaking",
		"claim-request": "claiming",
		"claim-reply":   "claiming",
		"activate":      "claiming",
		"fetch-job":     "shadow/starter",
		"job-details":   "shadow/starter",
		"job-result":    "shadow/starter",
		"job-final":     "shadow/schedd",
	}
	eng := sim.New(1)
	bus := sim.NewBus(eng, 5*time.Millisecond)
	type ev struct {
		at  sim.Time
		msg string
		pro string
	}
	var trace []ev
	bus.Trace = func(m sim.Message, delivered bool) {
		if !delivered {
			return
		}
		kind := m.Kind
		if pro, ok := protocols[kind]; ok {
			trace = append(trace, ev{eng.Now(), m.String(), pro})
		}
	}
	params := daemon.DefaultParams()
	daemon.NewMatchmaker(bus, params)
	schedd := daemon.NewSchedd(bus, params, "schedd")
	daemon.NewStartd(bus, params, daemon.MachineConfig{
		Name: "c001", Memory: 2048, AdvertiseJava: true,
	})
	schedd.SubmitFS.WriteFile("/home/user/Main.class", []byte("bytes"))
	id := schedd.Submit(&daemon.Job{
		Owner:      "user",
		Ad:         daemon.NewJavaJobAd("user", 128),
		Program:    jvm.WellBehaved(10 * time.Minute),
		Executable: "/home/user/Main.class",
	})
	for eng.Now() < sim.Time(2*time.Hour) && !schedd.AllTerminal() {
		eng.RunFor(time.Minute)
	}
	for _, e := range trace {
		r.AddRow(e.at.String(), e.msg, e.pro)
	}
	j := schedd.Job(id)
	r.AddNote("job state: %v after %d attempt(s); CPU delivered %v",
		j.State, len(j.Attempts), j.Attempts[0].CPU)
	return r
}

// Figure2 exercises the Java Universe data path of Figure 2 over real
// TCP loopback sockets: I/O library -> Chirp proxy in the starter ->
// shadow remote I/O channel -> submit-side file system; then injects
// one fault per hop and reports the scope that arrives at the job.
func Figure2() (*Report, error) {
	r := &Report{
		ID:      "figure2",
		Title:   "The Java Universe data path over real sockets",
		Headers: []string{"step", "outcome", "scope observed by job"},
	}
	key := []byte("shadow-key")

	submitFS := vfs.New()
	submitFS.WriteFile("/home/user/input", []byte("twelve bytes"))
	shadowSrv := remoteio.NewServer(submitFS, key)
	shadowAddr, err := shadowSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer shadowSrv.Close()

	shadowChan, err := remoteio.Dial(shadowAddr, key)
	if err != nil {
		return nil, err
	}
	defer shadowChan.Close()
	proxy := chirp.NewServer(&remoteio.ChirpBackend{Client: shadowChan}, "cookie")
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer proxy.Close()

	session, err := chirp.Dial(proxyAddr, "cookie")
	if err != nil {
		return nil, err
	}
	defer session.Close()
	lib := javaio.New(javaio.NewChirpTransport(session))

	describe := func(err error) string {
		if err == nil {
			return "-"
		}
		se, _ := scope.AsError(err)
		if se == nil {
			return err.Error()
		}
		return fmt.Sprintf("%s (%s, %s scope)", se.Code, se.Kind, se.Scope)
	}

	data, err := lib.Read("/home/user/input", 0, 64)
	r.AddRow("read input through both hops", fmt.Sprintf("%d bytes", len(data)), describe(err))

	_, err = lib.Write("/home/user/output", 0, []byte("results"))
	r.AddRow("write output through both hops", "ok", describe(err))

	_, err = lib.Read("/home/user/missing", 0, 1)
	r.AddRow("read a missing file", "explicit exception", describe(err))

	submitFS.SetOffline(true)
	_, err = lib.Read("/home/user/input", 0, 1)
	r.AddRow("submit file system offline", "escaping error", describe(err))
	submitFS.SetOffline(false)

	shadowSrv.ExpireCredentials()
	_, err = lib.Read("/home/user/input", 0, 1)
	r.AddRow("shadow credentials expired", "escaping error", describe(err))
	shadowSrv.RenewCredentials()

	shadowSrv.Close()
	_, err = lib.Read("/home/user/input", 0, 1)
	r.AddRow("shadow channel lost", "escaping error", describe(err))

	r.AddNote("each error crosses two protocol hops with its scope intact;")
	r.AddNote("errors wider than file scope escape rather than masquerade as I/O results")
	return r, nil
}

// Figure3 injects one error per scope tier into a live pool and
// reports which program handled it and the schedd's disposition.
func Figure3() *Report {
	r := &Report{
		ID:    "figure3",
		Title: "Error scopes and their handling programs",
		Headers: []string{"injected condition", "error scope", "handled by",
			"schedd disposition", "attempts"},
	}
	type scenario struct {
		name  string
		setup func(p *pool.Pool) daemon.JobID
	}
	params := daemon.DefaultParams()
	params.ChronicFailureThreshold = 1
	params.Mount = daemon.MountPolicy{Kind: daemon.MountSoft,
		SoftTimeout: 2 * time.Minute, RetryInterval: 30 * time.Second}

	submit := func(p *pool.Pool, prog *jvm.Program) daemon.JobID {
		return p.SubmitJava(1, func(int) *jvm.Program { return prog })[0]
	}
	scenarios := []scenario{
		{"program completes main", func(p *pool.Pool) daemon.JobID {
			return submit(p, jvm.WellBehaved(time.Minute))
		}},
		{"program dereferences null pointer", func(p *pool.Pool) daemon.JobID {
			return submit(p, jvm.NullPointer())
		}},
		{"not enough memory on first machine", func(p *pool.Pool) daemon.JobID {
			return submit(p, jvm.MemoryHog(16<<20))
		}},
		{"java misconfigured on first machine", func(p *pool.Pool) daemon.JobID {
			return submit(p, jvm.WellBehaved(time.Minute))
		}},
		{"home file system offline for one hour", func(p *pool.Pool) daemon.JobID {
			id := submit(p, jvm.WellBehaved(time.Minute))
			p.Schedd.SubmitFS.SetOffline(true)
			p.Engine.After(time.Hour, func() { p.Schedd.SubmitFS.SetOffline(false) })
			return id
		}},
		{"program image corrupt", func(p *pool.Pool) daemon.JobID {
			return submit(p, jvm.CorruptImage())
		}},
	}
	for i, sc := range scenarios {
		machines := pool.UniformMachines(2, 2048)
		machines[0].Name = "first"
		machines[0].Memory = 4096 // ranked first
		machines[1].Name = "second"
		switch i {
		case 2:
			machines[0].JVM.HeapLimit = 1 << 20
		case 3:
			machines[0].JVM.BadLibraryPath = true
		}
		p := pool.New(pool.Config{Seed: int64(i + 1), Params: params, Machines: machines})
		id := sc.setup(p)
		p.Run(12 * time.Hour)
		j := p.Schedd.Job(id)

		trueScope := scope.ScopeProgram
		handler := scope.HandlerUser
		// Find the widest true error any attempt saw.
		for _, att := range j.Attempts {
			var err error
			if att.FetchError != nil {
				err = att.FetchError
			} else {
				err = att.True.Err()
			}
			if err != nil && scope.ScopeOf(err) > trueScope {
				trueScope = scope.ScopeOf(err)
				handler = scope.Route(err)
			}
		}
		disp := "completed"
		switch j.State {
		case daemon.JobUnexecutable:
			disp = "unexecutable"
		case daemon.JobHeld:
			disp = "held"
		case daemon.JobCompleted:
			disp = "complete"
		default:
			disp = j.State.String()
		}
		r.AddRow(sc.name, trueScope.String(), string(handler), disp,
			fmt.Sprintf("%d", len(j.Attempts)))
	}
	r.AddNote("program scope returns to the user; job scope is unexecutable;")
	r.AddNote("everything in between is consumed by the system and retried elsewhere (Principle 3)")
	return r
}

// Figure4Row is one line of the Figure 4 table.
type Figure4Row struct {
	Detail       string
	TrueScope    scope.Scope
	JVMExitCode  int
	WrapperScope scope.Scope
	WrapperKind  string
}

// Figure4 reproduces the JVM result code table, with and without the
// wrapper.
func Figure4() (*Report, []Figure4Row) {
	r := &Report{
		ID:    "figure4",
		Title: "JVM result codes (and the wrapper's recovery of scope)",
		Headers: []string{"execution detail", "error scope", "JVM result code",
			"wrapper classifies as"},
	}
	offline := scope.New(scope.ScopeLocalResource, "ConnectionTimedOutException", "home file system offline")
	offline.Kind = scope.KindEscaping
	offlineIO := javaio.TransportFunc{
		ReadFn: func(string, int64, int) ([]byte, error) { return nil, offline },
		WriteFn: func(_ string, _ int64, d []byte) (int, error) {
			return 0, offline
		},
	}
	type rowSpec struct {
		detail string
		m      *jvm.Machine
		prog   *jvm.Program
		io     jvm.FileOps
		scope  scope.Scope
	}
	specs := []rowSpec{
		{"The program exited by completing main.", jvm.New(jvm.Config{}), jvm.WellBehaved(time.Millisecond), nil, scope.ScopeProgram},
		{"The program exited by calling System.exit(x).", jvm.New(jvm.Config{}), jvm.ExitWith(3, 0), nil, scope.ScopeProgram},
		{"Exception: The program de-referenced a null pointer.", jvm.New(jvm.Config{}), jvm.NullPointer(), nil, scope.ScopeProgram},
		{"Exception: There was not enough memory for the program.", jvm.New(jvm.Config{HeapLimit: 1 << 20}), jvm.MemoryHog(8 << 20), nil, scope.ScopeVirtualMachine},
		{"Exception: The Java installation is misconfigured.", jvm.New(jvm.Config{BadLibraryPath: true}), jvm.WellBehaved(0), nil, scope.ScopeRemoteResource},
		{"Exception: The home file system was offline.", jvm.New(jvm.Config{}), jvm.ReadsInput("/in", 8), javaio.New(offlineIO), scope.ScopeLocalResource},
		{"Exception: The program image was corrupt.", jvm.New(jvm.Config{}), jvm.CorruptImage(), nil, scope.ScopeJob},
	}
	var rows []Figure4Row
	w := &wrapper.Wrapper{}
	for _, spec := range specs {
		scratch := vfs.New()
		exec := w.Run(spec.m, spec.prog, spec.io, scratch)
		res := wrapper.ReadResult(scratch)
		wscope := res.Scope
		wkind := res.Status.String()
		if res.Status == scope.StatusExited {
			wscope = scope.ScopeProgram
			wkind = fmt.Sprintf("exit %d (program result)", res.ExitCode)
		}
		rows = append(rows, Figure4Row{
			Detail:       spec.detail,
			TrueScope:    spec.scope,
			JVMExitCode:  exec.ExitCode,
			WrapperScope: wscope,
			WrapperKind:  wkind,
		})
		r.AddRow(spec.detail, spec.scope.String(),
			fmt.Sprintf("%d", exec.ExitCode),
			fmt.Sprintf("%s / %s scope", wkind, wscope))
	}
	// Quantify the information loss.
	byCode := map[int]map[scope.Scope]bool{}
	for _, row := range rows {
		if byCode[row.JVMExitCode] == nil {
			byCode[row.JVMExitCode] = map[scope.Scope]bool{}
		}
		byCode[row.JVMExitCode][row.TrueScope] = true
	}
	var codes []int
	for c := range byCode {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		if len(byCode[c]) > 1 {
			r.AddNote("result code %d covers %d distinct scopes — the code alone cannot route the error",
				c, len(byCode[c]))
		}
	}
	r.AddNote("the wrapper's result file recovers the scope in every case")
	return r, rows
}
