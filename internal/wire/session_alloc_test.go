//go:build !race

package wire

// Allocation guards on the session's per-message path; the race
// detector changes what allocates, so these run only without it.

import (
	"bufio"
	"bytes"
	"testing"
)

// TestSessionMessagesAllocateNothing pins that a message costs no
// allocation in either mode: WriteMsg seals in place inside the frame
// buffer with the session's own nonce and additional-data scratch, and
// ReadMsg opens in place inside the frame reader's pooled buffer.
func TestSessionMessagesAllocateNothing(t *testing.T) {
	const runs = 100
	payload := bytes.Repeat([]byte{0x5A}, 32<<10)
	for _, mode := range []Mode{ModeBinary, ModeSecure} {
		t.Run(mode.String(), func(t *testing.T) {
			secret := []byte("k")
			client, server, _ := sessionPair(t, Config{Mode: mode, Secret: secret}, Config{Secret: secret}, nil)
			var stream bytes.Buffer
			stream.Grow((runs + 1) * (len(payload) + 64))
			client.fw.w = &stream
			if n := testing.AllocsPerRun(runs, func() {
				if err := client.WriteMsg(0x90, payload); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("WriteMsg allocated %v times per message, want 0", n)
			}
			// Read the runs+1 messages back from the recorded stream.
			server.fr.r = bufio.NewReaderSize(&stream, BufSize)
			if n := testing.AllocsPerRun(runs, func() {
				if _, got, err := server.ReadMsg(); err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("ReadMsg: %d bytes, %v", len(got), err)
				}
			}); n != 0 {
				t.Errorf("ReadMsg allocated %v times per message, want 0", n)
			}
		})
	}
}
