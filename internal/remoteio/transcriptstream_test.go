package remoteio

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// transcriptStreams are the SHA-256 digests of the byte streams each
// golden transcript records: every client write concatenated, then the
// server's replies (in secure mode, where the bytes are masked, the
// total sizes).  They were taken from the goldens as they stood before
// the text clients' buffered writers grew to hold a whole 32 KiB
// message, when the 8 KiB text write of both sessions still left in
// two Write calls; it now leaves in one.  The write boundaries are the
// syscall pattern TestWireTranscripts pins and may move; the bytes on
// the wire may not.
var transcriptStreams = map[string]string{
	"chirp-text.transcript":      "cd39fda77ac4c624a04f157798bb14e15fc3f1f34245de0103b85f1600e435d1",
	"chirp-binary.transcript":    "6078a43246f211a7b45a2c990e344f8f37e94da881a7e734e330024ff21c9223",
	"chirp-secure.transcript":    "281f19d6fbfc6ba9b54ab4faab989bb5697d38293fa581aa53d8043c8cfa4866",
	"remoteio-text.transcript":   "7d8b2e4ed9d44ceb7009482f77b89b59255a872a86d7445d4f54532072c2ce53",
	"remoteio-binary.transcript": "01186623558416697a945d3ee19d5ad5e661626f24fe690157ddbf1b798a4e6a",
	"remoteio-secure.transcript": "625130955fc500e8639cf890caadfbb2a721559a3fe5fefcbb35998c6c7ed203",
}

// transcriptStream decodes a transcript back into its two streams.
func transcriptStream(t *testing.T, transcript string) (client, server string) {
	t.Helper()
	var c, s strings.Builder
	var cSize, sSize int
	for _, line := range strings.Split(strings.TrimSuffix(transcript, "\n"), "\n") {
		dir, body, ok := strings.Cut(line, " ")
		if !ok || (dir != ">" && dir != "<") {
			t.Fatalf("transcript line %q", line)
		}
		out, size := &c, &cSize
		if dir == "<" {
			out, size = &s, &sSize
		}
		if n, found := strings.CutSuffix(body, " bytes"); found && !strings.HasPrefix(body, `"`) {
			v, err := strconv.Atoi(n)
			if err != nil {
				t.Fatalf("transcript line %q: %v", line, err)
			}
			*size += v
			continue
		}
		v, err := strconv.Unquote(body)
		if err != nil {
			t.Fatalf("transcript line %q: %v", line, err)
		}
		out.WriteString(v)
	}
	return fmt.Sprintf("%s[%d bytes]", c.String(), cSize), fmt.Sprintf("%s[%d bytes]", s.String(), sSize)
}

// TestTranscriptStreamsUnchanged: however a golden transcript splits
// the client's writes, the bytes each side sends are the ones recorded.
func TestTranscriptStreamsUnchanged(t *testing.T) {
	for _, name := range []string{"chirp", "remoteio"} {
		for _, mode := range []string{"text", "binary", "secure"} {
			golden := name + "-" + mode + ".transcript"
			data, err := os.ReadFile(filepath.Join("testdata", golden))
			must(t, err)
			client, server := transcriptStream(t, string(data))
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(client+"\x00"+server)))
			if want := transcriptStreams[golden]; got != want {
				t.Errorf("%s: byte streams digest %s, want %s", golden, got, want)
			}
		}
	}
}
