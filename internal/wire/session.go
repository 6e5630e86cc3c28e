package wire

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"io"
	"slices"

	"github.com/errscope/grid/internal/scope"
)

// The session layer on top of the binary frame codec: either a
// shared-secret authentication exchange (ModeBinary) or an
// authenticated-encryption channel (ModeSecure) that supersedes the
// plaintext cookie entirely.
//
// The secure handshake is an X25519 Diffie-Hellman exchange whose
// traffic keys are bound to the shared secret: both sides derive
// AES-256-GCM keys from HKDF(ecdh-shared, nonces, H(secret)) and then
// prove possession by exchanging fixed proof messages under those
// keys.  A peer that does not know the secret derives different keys,
// its proof fails to open, and the handshake ends in the protocol's
// explicit authentication error — the secret is never sent, in either
// direction, in any mode's ciphertext or plaintext.
//
// (The design follows the chacha20poly1305-style AEAD sessions of
// qotp-like transports; this repository is dependency-free, so the
// AEAD is the standard library's AES-256-GCM and the KDF is an HKDF
// built from crypto/hmac + SHA-256.  The substitution is documented
// in DESIGN.md and changes none of the error behaviour under test.)
//
// Message-type state machine:
//
//	client                         server
//	  | -- MsgAuth(secret) ---------> |   (ModeBinary)
//	  | <------- MsgAuthOK / MsgError |
//
//	  | -- MsgHello(pub,nonce) -----> |   (ModeSecure)
//	  | <---- MsgHelloAck(pub,nonce)  |
//	  | -- MsgProof{sealed} --------> |
//	  | <--- MsgProofAck{sealed} / MsgError
//	  | == app frames, sealed ======> |
//
// Every frame still carries the codec's sequence counter and
// checksum; sealed frames additionally carry a per-direction AEAD
// nonce counter, so a replayed or reordered ciphertext fails either
// the sequence check (ReplayedFrame) or the MAC (MACFailure).

// Mode selects the transport under a protocol client or server.
type Mode int

const (
	// ModeText is the legacy line protocol: no frames, no session.
	ModeText Mode = iota
	// ModeBinary frames every message with the checksummed binary
	// codec and authenticates with the shared secret in-band.
	ModeBinary
	// ModeSecure runs the authenticated-encryption session.
	ModeSecure
)

// String names the mode for reports and benchmarks.
func (m Mode) String() string {
	switch m {
	case ModeText:
		return "text"
	case ModeBinary:
		return "binary"
	case ModeSecure:
		return "secure"
	}
	return "mode(?)"
}

// Session message types.  They live above the app command range so a
// server can tell a session frame from a protocol frame at a glance.
const (
	MsgAuth     byte = 0xE0
	MsgAuthOK   byte = 0xE1
	MsgHello    byte = 0xE2
	MsgHelloAck byte = 0xE3
	MsgProof    byte = 0xE4
	MsgProofAck byte = 0xE5
	MsgError    byte = 0xEF
)

// The sealed proof constants of the secure handshake.
const (
	clientProof = "errscope-client-proof-v1"
	serverProof = "errscope-server-proof-v1"
	kdfInfo     = "errscope-wire-v1"
)

// Config parameterizes a Session.
type Config struct {
	// Mode is ModeBinary or ModeSecure (clients).  Servers accept
	// whichever mode the client opens with.
	Mode Mode
	// Secret is the shared secret (the chirp cookie, the remoteio
	// key).  In ModeSecure it is never transmitted; it binds the
	// derived keys.
	Secret []byte
	// MaxPayload bounds one frame payload; <= 0 uses the default.
	MaxPayload int
	// RekeyAfter is the sealed-frame budget per direction; when
	// either counter reaches it the session refuses further traffic
	// with KeyExpired at local-resource scope.  0 means no budget.
	// Budgets are counted in frames, never wall time, so expiry is
	// deterministic.
	RekeyAfter uint64
	// AuthFailure supplies the server's explicit error for a failed
	// authentication; nil defaults to process-scope NotAuthenticated.
	AuthFailure func() *scope.Error
}

// Session is one framed connection endpoint.  It is not safe for
// concurrent use; the protocol clients serialize on their own mutex
// and servers run one goroutine per connection.
type Session struct {
	fr  *FrameReader
	fw  *FrameWriter
	cfg Config

	mode        Mode
	established bool

	seal, open       cipher.AEAD
	sendCtr, recvCtr uint64

	// Per-direction AEAD scratch, so sealing allocates nothing: the
	// nonce is the direction tag followed by the frame counter, and
	// the additional data is the frame's command byte.  The two
	// directions keep their own, so one goroutine may read while
	// another writes.
	sendNonce, recvNonce [12]byte
	sendAD, recvAD       [1]byte
}

// NewSession wraps an established byte stream.  The reader side must
// be the same bufio.Reader used for any mode sniffing, so no bytes
// are lost.
func NewSession(r *bufio.Reader, w io.Writer, cfg Config) *Session {
	return &Session{
		fr:  NewFrameReader(r, cfg.MaxPayload),
		fw:  NewFrameWriter(w),
		cfg: cfg,
	}
}

// Release returns the session's pooled buffers.  The session must not
// be used afterwards.
func (s *Session) Release() {
	s.fr.Release()
	s.fw.Release()
}

// Mode reports the negotiated transport mode.
func (s *Session) Mode() Mode { return s.mode }

func (s *Session) authFailure() *scope.Error {
	if s.cfg.AuthFailure != nil {
		return s.cfg.AuthFailure()
	}
	return scope.New(scope.ScopeProcess, "NotAuthenticated", "authentication failed")
}

func keyExpired() *scope.Error {
	return scope.New(scope.ScopeLocalResource, CodeKeyExpired,
		"session key expired: sealed-frame budget exhausted, rekey required")
}

// ClientHandshake authenticates to the server in the configured mode.
// Explicit server refusals (a bad secret) come back as the scoped
// error the server sent; transport trouble comes back at network
// scope.
func (s *Session) ClientHandshake() error {
	switch s.cfg.Mode {
	case ModeBinary:
		if err := s.fw.WriteFrame(MsgAuth, s.cfg.Secret); err != nil {
			return scope.Escape(scope.ScopeNetwork, CodeConnectionLostName, err)
		}
		cmd, payload, err := s.fr.Next()
		if err != nil {
			return s.readErr(err)
		}
		switch cmd {
		case MsgAuthOK:
			s.mode = ModeBinary
			s.established = true
			return nil
		case MsgError:
			return s.peerError(payload)
		}
		return scope.New(scope.ScopeNetwork, CodeFrameProtocol,
			"handshake: unexpected message %#x", cmd)
	case ModeSecure:
		return s.clientSecureHandshake()
	}
	return scope.New(scope.ScopeProcess, CodeFrameProtocol,
		"mode %s has no session handshake", s.cfg.Mode)
}

func (s *Session) clientSecureHandshake() error {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return scope.Escape(scope.ScopeProcess, CodeFrameProtocol, err)
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return scope.Escape(scope.ScopeProcess, CodeFrameProtocol, err)
	}
	if err := s.fw.WriteFrame(MsgHello, priv.PublicKey().Bytes(), nonce); err != nil {
		return scope.Escape(scope.ScopeNetwork, CodeConnectionLostName, err)
	}
	cmd, payload, err := s.fr.Next()
	if err != nil {
		return s.readErr(err)
	}
	if cmd == MsgError {
		return s.peerError(payload)
	}
	if cmd != MsgHelloAck || len(payload) != 32+16 {
		return scope.New(scope.ScopeNetwork, CodeFrameProtocol,
			"handshake: bad hello-ack (%#x, %d bytes)", cmd, len(payload))
	}
	if err := s.deriveKeys(priv, payload[:32], nonce, payload[32:], true); err != nil {
		return err
	}
	if err := s.writeSealed(MsgProof, []byte(clientProof)); err != nil {
		return err
	}
	cmd, payload, err = s.fr.Next()
	if err != nil {
		return s.readErr(err)
	}
	if cmd == MsgError {
		return s.peerError(payload)
	}
	proof, err := s.openSealed(payload)
	if err != nil || cmd != MsgProofAck || string(proof) != serverProof {
		return scope.New(scope.ScopeNetwork, CodeMACFailure,
			"handshake: server proof did not verify")
	}
	s.mode = ModeSecure
	s.established = true
	return nil
}

// ServerHandshake accepts whichever mode the client opened with and
// authenticates it.  A failed authentication sends the configured
// explicit error to the client and returns it here for the server's
// log.
func (s *Session) ServerHandshake() error {
	cmd, payload, err := s.fr.Next()
	if err != nil {
		return s.readErr(err)
	}
	switch cmd {
	case MsgAuth:
		if subtle.ConstantTimeCompare(payload, s.cfg.Secret) != 1 {
			se := s.authFailure()
			s.writeError(se)
			return se
		}
		if err := s.fw.WriteFrame(MsgAuthOK); err != nil {
			return scope.Escape(scope.ScopeNetwork, CodeConnectionLostName, err)
		}
		s.mode = ModeBinary
		s.established = true
		return nil
	case MsgHello:
		return s.serverSecureHandshake(payload)
	}
	return scope.New(scope.ScopeNetwork, CodeFrameProtocol,
		"handshake: unexpected message %#x", cmd)
}

func (s *Session) serverSecureHandshake(hello []byte) error {
	if len(hello) != 32+16 {
		return scope.New(scope.ScopeNetwork, CodeFrameProtocol,
			"handshake: bad hello (%d bytes)", len(hello))
	}
	clientPub := append([]byte(nil), hello[:32]...)
	clientNonce := append([]byte(nil), hello[32:]...)
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return scope.Escape(scope.ScopeProcess, CodeFrameProtocol, err)
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return scope.Escape(scope.ScopeProcess, CodeFrameProtocol, err)
	}
	if err := s.fw.WriteFrame(MsgHelloAck, priv.PublicKey().Bytes(), nonce); err != nil {
		return scope.Escape(scope.ScopeNetwork, CodeConnectionLostName, err)
	}
	if err := s.deriveKeys(priv, clientPub, clientNonce, nonce, false); err != nil {
		return err
	}
	cmd, payload, err := s.fr.Next()
	if err != nil {
		return s.readErr(err)
	}
	proof, perr := s.openSealed(payload)
	if perr != nil || cmd != MsgProof || string(proof) != clientProof {
		// Wrong secret and tampered handshake are indistinguishable
		// here by design; both are the explicit authentication error.
		se := s.authFailure()
		s.writeError(se)
		return se
	}
	if err := s.writeSealed(MsgProofAck, []byte(serverProof)); err != nil {
		return err
	}
	s.mode = ModeSecure
	s.established = true
	return nil
}

// deriveKeys computes the two directional AEAD keys.  The shared
// secret enters the KDF info, so a peer without it derives garbage.
func (s *Session) deriveKeys(priv *ecdh.PrivateKey, peerPub, clientNonce, serverNonce []byte, isClient bool) error {
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return scope.New(scope.ScopeNetwork, CodeFrameProtocol, "handshake: bad public key: %v", err)
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		return scope.New(scope.ScopeNetwork, CodeFrameProtocol, "handshake: ECDH failed: %v", err)
	}
	secretHash := sha256.Sum256(s.cfg.Secret)

	// HKDF-Extract(salt = nonces, ikm = shared), then two blocks of
	// HKDF-Expand(info = label || H(secret)).
	ext := hmac.New(sha256.New, append(append([]byte(nil), clientNonce...), serverNonce...))
	ext.Write(shared)
	prk := ext.Sum(nil)
	info := append([]byte(kdfInfo), secretHash[:]...)
	exp := hmac.New(sha256.New, prk)
	exp.Write(info)
	exp.Write([]byte{1})
	t1 := exp.Sum(nil)
	exp.Reset()
	exp.Write(t1)
	exp.Write(info)
	exp.Write([]byte{2})
	t2 := exp.Sum(nil)

	c2s, err1 := newAEAD(t1)
	s2c, err2 := newAEAD(t2)
	if err1 != nil || err2 != nil {
		return scope.New(scope.ScopeProcess, CodeFrameProtocol, "handshake: cipher init failed")
	}
	// The nonces' direction tags; the fourth byte stays zero.
	s.seal, s.open = c2s, s2c
	send, recv := "c2s", "s2c"
	if !isClient {
		s.seal, s.open = s2c, c2s
		send, recv = recv, send
	}
	copy(s.sendNonce[:], send)
	copy(s.recvNonce[:], recv)
	return nil
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// nonceAt completes a direction's 12-byte AEAD nonce: its tag, set at
// key derivation, then the frame counter.  Counters never repeat
// within a session, and the tag keeps the two directions' nonce spaces
// disjoint under the related keys.
func nonceAt(nonce *[12]byte, ctr uint64) []byte {
	binary.BigEndian.PutUint64(nonce[4:], ctr)
	return nonce[:]
}

// writeSealed seals a payload in place inside the frame buffer and
// writes it as one frame, spending one unit of the send budget.
func (s *Session) writeSealed(cmd byte, parts ...[]byte) error {
	if s.cfg.RekeyAfter > 0 && s.sendCtr >= s.cfg.RekeyAfter {
		return keyExpired()
	}
	buf := s.fw.begin(cmd)
	for _, p := range parts {
		buf = append(buf, p...)
	}
	buf = slices.Grow(buf, s.seal.Overhead())
	s.sendAD[0] = cmd
	// The plaintext after the header becomes its own ciphertext and
	// tag: dst's free capacity starts exactly where the plaintext does.
	buf = s.seal.Seal(buf[:frameHeaderLen], nonceAt(&s.sendNonce, s.sendCtr), buf[frameHeaderLen:], s.sendAD[:])
	s.sendCtr++
	if err := s.fw.send(buf); err != nil {
		return scope.Escape(scope.ScopeNetwork, CodeConnectionLostName, err)
	}
	return nil
}

// openSealed opens one sealed payload, spending one unit of the
// receive budget.  The caller supplies the frame's command byte via
// the payload's authenticated data implicitly: it is re-bound below.
func (s *Session) openSealedCmd(cmd byte, payload []byte) ([]byte, error) {
	if s.cfg.RekeyAfter > 0 && s.recvCtr >= s.cfg.RekeyAfter {
		return nil, keyExpired()
	}
	s.recvAD[0] = cmd
	plain, err := s.open.Open(payload[:0], nonceAt(&s.recvNonce, s.recvCtr), payload, s.recvAD[:])
	if err != nil {
		return nil, scope.New(scope.ScopeNetwork, CodeMACFailure,
			"frame MAC did not verify: payload corrupted or forged")
	}
	s.recvCtr++
	return plain, nil
}

// openSealed is openSealedCmd for the handshake proofs, which bind
// their own command bytes.
func (s *Session) openSealed(payload []byte) ([]byte, error) {
	cmd := MsgProof
	if s.seal != nil && s.sendNonce[0] == 'c' {
		cmd = MsgProofAck // client opens the server's proof
	}
	return s.openSealedCmd(cmd, payload)
}

// WriteMsg sends one application message.  In ModeSecure the payload
// is sealed; in ModeBinary it is framed in the clear.
func (s *Session) WriteMsg(cmd byte, parts ...[]byte) error {
	if !s.established {
		return scope.New(scope.ScopeProcess, CodeFrameProtocol, "session not established")
	}
	if s.mode == ModeSecure {
		return s.writeSealed(cmd, parts...)
	}
	if err := s.fw.WriteFrame(cmd, parts...); err != nil {
		return scope.Escape(scope.ScopeNetwork, CodeConnectionLostName, err)
	}
	return nil
}

// ReadMsg reads one application message.  The payload aliases the
// session's read buffer and is valid until the next call.  A clean
// peer close is io.EOF; every detected fault is a scoped error
// carrying one of the frame-layer codes.
func (s *Session) ReadMsg() (byte, []byte, error) {
	if !s.established {
		return 0, nil, scope.New(scope.ScopeProcess, CodeFrameProtocol, "session not established")
	}
	cmd, payload, err := s.fr.Next()
	if err != nil {
		return 0, nil, err
	}
	if s.mode == ModeSecure {
		plain, err := s.openSealedCmd(cmd, payload)
		if err != nil {
			return 0, nil, err
		}
		return cmd, plain, nil
	}
	return cmd, payload, nil
}

// WriteError sends a scoped error as an application error frame.
func (s *Session) WriteError(err error, fallbackCode string, fallbackScope scope.Scope) error {
	return s.WriteMsg(CmdErr, EncodeErrorPayload(err, fallbackCode, fallbackScope))
}

// writeError sends a plaintext MsgError during the handshake, before
// any keys exist.
func (s *Session) writeError(se *scope.Error) {
	_ = s.fw.WriteFrame(MsgError, EncodeErrorPayload(se, se.Code, se.Scope))
}

// peerError decodes a plaintext handshake error from the server.
func (s *Session) peerError(payload []byte) error {
	se, err := DecodeErrorPayload(payload)
	if err != nil {
		return scope.New(scope.ScopeNetwork, CodeFrameProtocol,
			"handshake: undecodable error frame: %v", err)
	}
	return se
}

// readErr passes scoped frame errors through and wraps raw transport
// errors (including clean EOF, which here means the peer hung up mid
// handshake) at network scope.
func (s *Session) readErr(err error) error {
	if _, ok := scope.AsError(err); ok {
		return err
	}
	return scope.Escape(scope.ScopeNetwork, CodeConnectionLostName, err)
}

// CodeConnectionLostName is the shared code for a dead transport; the
// protocol packages declare the same string in their contracts.
const CodeConnectionLostName = "ConnectionLost"
