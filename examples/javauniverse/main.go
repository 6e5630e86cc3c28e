// Java Universe data path over real TCP (Figure 2 of the paper):
// the job's I/O library speaks Chirp to the proxy in the starter,
// which forwards over the authenticated shadow channel to the submit
// machine's file system.  Faults injected at each layer arrive at the
// job with their scope intact.
//
//	go run ./examples/javauniverse
package main

import (
	"fmt"
	"log"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/javaio"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/remoteio"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wrapper"
)

func main() {
	// --- Submit machine: the shadow serves the user's files. ---
	key := []byte("gsi-substitute-shared-key")
	submitFS := vfs.New()
	submitFS.WriteFile("/home/alice/input.dat", []byte("simulation parameters v7"))
	shadow := remoteio.NewServer(submitFS, key)
	shadowAddr, err := shadow.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer shadow.Close()
	fmt.Println("shadow remote I/O service on", shadowAddr)

	// --- Execution machine: the starter's Chirp proxy, backed by
	// the shadow channel. ---
	channel, err := remoteio.Dial(shadowAddr, key)
	if err != nil {
		log.Fatal(err)
	}
	defer channel.Close()
	proxy := chirp.NewServer(&remoteio.ChirpBackend{Client: channel}, "job-cookie")
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer proxy.Close()
	fmt.Println("starter chirp proxy on", proxyAddr)

	// --- The job: its I/O library authenticates to the proxy with
	// the cookie revealed through the local file system. ---
	session, err := chirp.Dial(proxyAddr, "job-cookie")
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()
	lib := javaio.New(javaio.NewChirpTransport(session))

	// A program that reads its input over the grid, computes, and
	// writes its output back to the submit machine.
	prog := &jvm.Program{Class: "Simulate", Steps: []jvm.Step{
		jvm.IORead{Path: "/home/alice/input.dat", Length: 64},
		jvm.Compute{Duration: 0},
		jvm.IOWrite{Path: "/home/alice/output.dat", Data: []byte("converged after 42 steps")},
	}}
	machine := jvm.New(jvm.Config{})
	scratch := vfs.New()
	w := &wrapper.Wrapper{}
	w.Run(machine, prog, lib, scratch)
	res := wrapper.ReadResult(scratch)
	fmt.Printf("\nrun 1 (healthy): wrapper result = %s, exit %d\n", res.Status, res.ExitCode)
	out, _ := submitFS.ReadFile("/home/alice/output.dat")
	fmt.Printf("submit machine now holds output: %q\n", out)

	// --- Fault: the submit-side file system goes offline. ---
	submitFS.SetOffline(true)
	scratch2 := vfs.New()
	w.Run(machine, prog, lib, scratch2)
	res = wrapper.ReadResult(scratch2)
	fmt.Printf("\nrun 2 (home file system offline):\n")
	fmt.Printf("  wrapper result = %s\n", res.Status)
	fmt.Printf("  exception      = %s\n", res.Exception)
	fmt.Printf("  scope          = %s  (handled by the %s)\n",
		res.Scope, res.Scope.Handler())
	fmt.Printf("  disposition    = %s\n", scope.DisposeError(res.Err()))
	submitFS.SetOffline(false)

	// --- Fault: the user's own bug, for contrast. ---
	bug := &jvm.Program{Class: "Simulate", Steps: []jvm.Step{
		jvm.Throw{Exception: "ArrayIndexOutOfBoundsException", Message: "index 9 of 8"},
	}}
	scratch3 := vfs.New()
	w.Run(machine, bug, lib, scratch3)
	res = wrapper.ReadResult(scratch3)
	fmt.Printf("\nrun 3 (program bug):\n")
	fmt.Printf("  wrapper result = %s (%s), scope %s, disposition %s\n",
		res.Status, res.Exception, res.Scope, scope.DisposeError(res.Err()))
	fmt.Println("\nthe environmental error is requeued by the system;")
	fmt.Println("the program's own exception is returned to the user — exactly Principle 3.")
}
