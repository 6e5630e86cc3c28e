package remoteio

import (
	"bytes"
	"testing"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
)

var testKey = []byte("shadow-shared-key")

func startShadow(t *testing.T) (*vfs.FileSystem, *Server, string) {
	t.Helper()
	fs := vfs.New()
	srv := NewServer(fs, testKey)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return fs, srv, addr
}

func shadowClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, testKey)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestAuthSuccessAndFailure(t *testing.T) {
	_, _, addr := startShadow(t)
	c := shadowClient(t, addr)
	if err := c.Create("/x"); err != nil {
		t.Fatal(err)
	}
	_, err := Dial(addr, []byte("wrong key"))
	if err == nil {
		t.Fatal("wrong key accepted")
	}
	se, _ := scope.AsError(err)
	if se == nil || se.Code != CodeAuthFailed || se.Scope != scope.ScopeLocalResource {
		t.Errorf("auth failure = %v", err)
	}
}

func TestReadWriteStat(t *testing.T) {
	fs, _, addr := startShadow(t)
	fs.WriteFile("/data", []byte("0123456789"))
	c := shadowClient(t, addr)

	got, err := c.Read("/data", 2, 4)
	if err != nil || string(got) != "2345" {
		t.Fatalf("read = %q, %v", got, err)
	}
	n, err := c.Write("/data", 8, []byte("XYZ"))
	if err != nil || n != 3 {
		t.Fatalf("write = %d, %v", n, err)
	}
	data, _ := fs.ReadFile("/data")
	if string(data) != "01234567XYZ" {
		t.Errorf("data = %q", data)
	}
	info, err := c.Stat("/data")
	if err != nil || info.Size != 11 {
		t.Errorf("stat = %+v, %v", info, err)
	}
}

func TestFileOpsAndErrors(t *testing.T) {
	fs, _, addr := startShadow(t)
	c := shadowClient(t, addr)

	if err := c.Create("/new"); err != nil {
		t.Fatal(err)
	}
	err := c.Create("/new")
	se, _ := scope.AsError(err)
	if se == nil || se.Code != vfs.CodeFileExists {
		t.Errorf("double create = %v", err)
	}
	if _, err := c.Write("/new", 0, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate("/new"); err != nil {
		t.Fatal(err)
	}
	info, _ := c.Stat("/new")
	if info.Size != 0 {
		t.Errorf("size after trunc = %d", info.Size)
	}
	if err := c.Rename("/new", "/moved"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/moved"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Read("/moved", 0, 1)
	se, _ = scope.AsError(err)
	if se == nil || se.Code != vfs.CodeFileNotFound || se.Scope != scope.ScopeFile {
		t.Errorf("read unlinked = %v", err)
	}
	fs.SetOffline(true)
	_, err = c.Stat("/anything")
	se, _ = scope.AsError(err)
	if se == nil || se.Code != vfs.CodeOffline || se.Scope != scope.ScopeLocalResource {
		t.Errorf("offline = %v", err)
	}
}

func TestCredentialExpiry(t *testing.T) {
	fs, srv, addr := startShadow(t)
	fs.WriteFile("/f", []byte("x"))
	c := shadowClient(t, addr)
	if _, err := c.Read("/f", 0, 1); err != nil {
		t.Fatal(err)
	}
	srv.ExpireCredentials()
	_, err := c.Read("/f", 0, 1)
	se, _ := scope.AsError(err)
	if se == nil || se.Code != CodeCredentialsExpired || se.Scope != scope.ScopeLocalResource {
		t.Fatalf("expired = %v", err)
	}
	// Expiry hits writes too, and the payload must still be drained
	// so the session keeps framing.
	_, err = c.Write("/f", 0, []byte("payload"))
	se, _ = scope.AsError(err)
	if se == nil || se.Code != CodeCredentialsExpired {
		t.Fatalf("expired write = %v", err)
	}
	srv.RenewCredentials()
	if _, err := c.Read("/f", 0, 1); err != nil {
		t.Fatalf("after renew: %v", err)
	}
}

func TestErrorsConformToContract(t *testing.T) {
	fs, srv, addr := startShadow(t)
	fs.WriteFile("/f", []byte("x"))
	c := shadowClient(t, addr)
	contract := Contract()
	var errs []error
	_, e1 := c.Read("/missing", 0, 1)
	errs = append(errs, e1)
	errs = append(errs, c.Create("/f"))
	srv.ExpireCredentials()
	_, e2 := c.Stat("/f")
	errs = append(errs, e2)
	for _, err := range errs {
		if err == nil {
			t.Fatal("want error")
		}
		if v := contract.Violations(err); v != "" {
			t.Errorf("violation: %s", v)
		}
	}
}

// TestFullFigure2DataPath wires the complete Figure 2 pipeline over
// real sockets: a Chirp client (the job's I/O library) talks to a
// Chirp server (the starter's proxy) whose backend forwards over the
// shadow remote I/O channel to the submit machine's file system.
func TestFullFigure2DataPath(t *testing.T) {
	// Submit machine: the shadow's file system and server.
	submitFS := vfs.New()
	submitFS.WriteFile("/home/user/input", []byte("input data from the submit machine"))
	shadowSrv := NewServer(submitFS, testKey)
	shadowAddr, err := shadowSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shadowSrv.Close()

	// Execution machine: the starter's proxy, backed by the shadow
	// channel.
	shadowChan, err := Dial(shadowAddr, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer shadowChan.Close()
	proxy := chirp.NewServer(&ChirpBackend{Client: shadowChan}, "job-cookie")
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// The job: a Chirp client using the cookie.
	job, err := chirp.Dial(proxyAddr, "job-cookie")
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()

	fd, err := job.Open("/home/user/input", chirp.FlagRead)
	if err != nil {
		t.Fatal(err)
	}
	data, err := job.Read(fd, 1024)
	if err != nil || !bytes.Equal(data, []byte("input data from the submit machine")) {
		t.Fatalf("read through both hops = %q, %v", data, err)
	}
	job.CloseFD(fd)

	// Write output back to the submit machine through both hops.
	ofd, err := job.Open("/home/user/output", chirp.FlagWrite|chirp.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Write(ofd, []byte("results")); err != nil {
		t.Fatal(err)
	}
	job.CloseFD(ofd)
	out, err := submitFS.ReadFile("/home/user/output")
	if err != nil || string(out) != "results" {
		t.Fatalf("submit-side output = %q, %v", out, err)
	}

	// Fault: the submit-side file system goes offline.  The error
	// crosses BOTH protocol hops with its scope intact: the job's
	// library sees local-resource scope, which violates the file
	// interface and must escape (tested at the javaio layer).
	submitFS.SetOffline(true)
	_, err = job.Open("/home/user/other", chirp.FlagRead)
	se, _ := scope.AsError(err)
	if se == nil || se.Scope != scope.ScopeLocalResource {
		t.Fatalf("offline through two hops = %v", err)
	}
}

// TestShadowDeathWidensThroughProxy kills the shadow channel and
// verifies the proxy reports ShadowUnavailableError at local-resource
// scope to the job (scope expansion, Section 3.3).
func TestShadowDeathWidensThroughProxy(t *testing.T) {
	submitFS := vfs.New()
	submitFS.WriteFile("/f", []byte("x"))
	shadowSrv := NewServer(submitFS, testKey)
	shadowAddr, _ := shadowSrv.Listen("127.0.0.1:0")
	shadowChan, err := Dial(shadowAddr, testKey)
	if err != nil {
		t.Fatal(err)
	}
	proxy := chirp.NewServer(&ChirpBackend{Client: shadowChan}, "ck")
	proxyAddr, _ := proxy.Listen("127.0.0.1:0")
	defer proxy.Close()

	job, err := chirp.Dial(proxyAddr, "ck")
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()

	shadowSrv.Close() // the shadow dies

	_, err = job.Open("/f", chirp.FlagRead)
	se, _ := scope.AsError(err)
	if se == nil {
		t.Fatalf("err = %v", err)
	}
	if se.Code != "ShadowUnavailableError" || se.Scope != scope.ScopeLocalResource {
		t.Errorf("widened error = code %s scope %v", se.Code, se.Scope)
	}
}
