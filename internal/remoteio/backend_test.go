package remoteio

import (
	"bytes"
	"strings"
	"testing"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
)

// proxyPair wires a chirp session whose backend forwards over a live
// shadow channel, returning the submit fs and the job-side client.
func proxyPair(t *testing.T) (*vfs.FileSystem, *chirp.Client) {
	t.Helper()
	fs, _, shadowAddr := startShadow(t)
	shadowChan, err := Dial(shadowAddr, testKey)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shadowChan.Close() })
	proxy := chirp.NewServer(&ChirpBackend{Client: shadowChan}, "ck")
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	job, err := chirp.Dial(proxyAddr, "ck")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { job.Close() })
	return fs, job
}

func TestChirpBackendFullSurface(t *testing.T) {
	fs, job := proxyPair(t)
	fs.WriteFile("/data/in", []byte("0123456789"))

	// Open + sequential read through both hops (exercises Size for
	// append and ReadAt).
	fd, err := job.Open("/data/in", chirp.FlagRead)
	if err != nil {
		t.Fatal(err)
	}
	got, err := job.Read(fd, 4)
	if err != nil || string(got) != "0123" {
		t.Fatalf("read = %q, %v", got, err)
	}
	job.CloseFD(fd)

	// Append mode forces a Size() call on the remote file.
	afd, err := job.Open("/data/in", chirp.FlagWrite|chirp.FlagAppend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Write(afd, []byte("AB")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/data/in")
	if !bytes.Equal(data, []byte("0123456789AB")) {
		t.Errorf("after append: %q", data)
	}

	// Stat, Rename, Unlink through both hops.
	info, err := job.Stat("/data/in")
	if err != nil || info.Size != 12 {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	if err := job.Rename("/data/in", "/data/out"); err != nil {
		t.Fatal(err)
	}
	if err := job.Unlink("/data/out"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/data/out"); err == nil {
		t.Error("file should be gone on the submit side")
	}

	// Access-mode enforcement in the remote file handle.
	rofd, err := job.Open("/data/ro", chirp.FlagWrite|chirp.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	_, err = job.Read(rofd, 1)
	se, _ := scope.AsError(err)
	if se == nil || se.Code != chirp.CodeAccessDenied {
		t.Errorf("read of write-only handle = %v", err)
	}
	wofd, _ := job.Open("/data/ro", chirp.FlagRead)
	_, err = job.Write(wofd, []byte("x"))
	se, _ = scope.AsError(err)
	if se == nil || se.Code != chirp.CodeAccessDenied {
		t.Errorf("write of read-only handle = %v", err)
	}

	// Truncate through open flags.
	fs.WriteFile("/data/t", []byte("longcontent"))
	tfd, err := job.Open("/data/t", chirp.FlagWrite|chirp.FlagTruncate)
	if err != nil {
		t.Fatal(err)
	}
	_ = tfd
	info, _ = fs.Stat("/data/t")
	if info.Size != 0 {
		t.Errorf("truncate through both hops: size = %d", info.Size)
	}
}

// TestShadowRPCBadRequests: arguments the client encodes faithfully
// but the file system refuses come back as errors and leave the
// session working.  Malformed requests, which the client cannot
// encode, are TestRefusalTranscripts' raw sessions.
func TestShadowRPCBadRequests(t *testing.T) {
	fs, _, addr := startShadow(t)
	fs.WriteFile("/f", []byte("x"))
	c := shadowClient(t, addr)
	if _, err := c.Read("/f", -1, 5); err == nil {
		t.Error("negative offset should fail")
	}
	if _, err := c.Read("/f", 0, -5); err == nil {
		t.Error("negative length should fail")
	}
	// And the session still works.
	if _, err := c.Stat("/f"); err != nil {
		t.Fatalf("after errors: %v", err)
	}
}

func TestListErrorPath(t *testing.T) {
	fs, srv, addr := startShadow(t)
	fs.WriteFile("/f", []byte("x"))
	c := shadowClient(t, addr)
	srv.ExpireCredentials()
	_, err := c.List("/")
	se, _ := scope.AsError(err)
	if se == nil || se.Code != CodeCredentialsExpired {
		t.Errorf("list with expired credentials = %v", err)
	}
	srv.RenewCredentials()
	infos, err := c.List("/")
	if err != nil || len(infos) != 1 || !strings.HasPrefix(infos[0].Path, "/f") {
		t.Errorf("list after renew = %+v, %v", infos, err)
	}
}
