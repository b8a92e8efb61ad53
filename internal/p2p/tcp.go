package p2p

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scalefree/internal/xrand"
)

// Wire framing. Every envelope, whatever its Kind, is one frame:
//
//	"SFP\x02" | u32 header length | u32 data length | header | data
//
// (little-endian). The header is the envelope as JSON minus Msg.Data, so
// control traffic stays greppable; Msg.Data follows as raw bytes, written
// from the caller's slice without a copy before Send returns. Send refuses
// an envelope over the caps with ErrFrameTooLarge before a byte moves. A
// receiver hangs up on, and counts in TCPStats.BadFrames, a connection
// whose next frame fails the magic, a cap or header decoding, and delivers
// nothing of it — which is what a peer still speaking newline-delimited
// JSON gets: the two framings never half-understand each other. The
// refused sender re-dials on its next Send, as after any broken connection.
const (
	frameMagic  = "SFP\x02"
	framePrefix = len(frameMagic) + 8
	maxHeader   = 1 << 20
	// MaxData caps Message.Data: sim.MaxRecordFrame, rounded up generously
	// (internal/coord checks the relation at compile time).
	MaxData = 64<<20 + 64<<10
	// readChunk is the most a claimed length may allocate ahead of its bytes.
	readChunk = 1 << 20
	// recycleSlots bounds the free list of recycled Data buffers. It is a
	// constant, not a knob, and the list is a plain slice the garbage
	// collector never empties (no sync.Pool), so what a run allocates does
	// not depend on when a collection happens.
	recycleSlots = 8
)

// ErrFrameTooLarge is Send's refusal of an envelope over the frame caps.
var ErrFrameTooLarge = errors.New("p2p: envelope exceeds the TCP frame cap")

// errBadFrame marks inbound bytes that are not a frame of this protocol.
var errBadFrame = errors.New("p2p: bad frame")

// TCPNetwork implements Network over real TCP sockets, one frame per
// envelope — the transport of distributed runs. Addresses are "host:port"
// listen addresses. Outbound connections are cached and re-dialed on
// failure; delivery remains best-effort, matching the in-memory transport's
// semantics.
type TCPNetwork struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (default 2s); a peer that
	// stops reading cannot wedge senders forever.
	WriteTimeout time.Duration
	// RetryMax is how many additional attempts Send makes after the first
	// failure, re-dialing broken connections between attempts (default 2).
	// Set negative for no retries.
	RetryMax int
	// BackoffBase and BackoffMax bound the capped exponential backoff
	// between attempts (defaults 5ms and 250ms); each wait is jittered by
	// a deterministic factor in [0.5, 1.0) drawn from a seeded stream.
	BackoffBase, BackoffMax time.Duration

	retries    atomic.Int64 // send attempts beyond the first
	reconnects atomic.Int64 // broken connections dropped for re-dial
	badFrames  atomic.Int64 // inbound connections hung up on for a bad frame

	jitterMu sync.Mutex
	jitter   *xrand.RNG

	// closeCh is closed by Close so retry backoffs in flight bail out
	// immediately instead of sleeping their full jittered delay.
	closeCh chan struct{}

	mu        sync.Mutex
	listeners map[string]net.Listener
	inboxes   map[string]chan<- Envelope
	conns     map[string]*tcpConn
	// aliases maps a port-0 request string ("host:0") to the resolved
	// listen address of its most recent registration. Kept separate from
	// listeners so repeated ephemeral binds never trip the duplicate check.
	aliases map[string]string
	// inbound maps each accepted connection to the resolved address of the
	// listener that accepted it, so Unregister can hang up that listener's
	// inbound side too.
	inbound map[net.Conn]string
	wg      sync.WaitGroup
	closed  bool

	// free holds the Data buffers receivers handed back with Recycle.
	free freeList
}

type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
}

var _ Network = (*TCPNetwork)(nil)

// NewTCPNetwork returns an empty TCP transport.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{
		DialTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		RetryMax:     2,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   250 * time.Millisecond,
		jitter:       xrand.New(0x7463702d6a697474), // "tcp-jitt"
		closeCh:      make(chan struct{}),
		listeners:    make(map[string]net.Listener),
		inboxes:      make(map[string]chan<- Envelope),
		conns:        make(map[string]*tcpConn),
		aliases:      make(map[string]string),
		inbound:      make(map[net.Conn]string),
	}
}

// TCPStats reports the transport's resilience activity.
type TCPStats struct {
	// Retries counts send attempts beyond the first (failed dial or
	// failed write, followed by backoff).
	Retries int64
	// Reconnects counts cached connections dropped after a write failure,
	// each re-dialed on the next attempt to that address.
	Reconnects int64
	// BadFrames counts inbound connections hung up on because their next
	// frame failed the magic, a size cap, or header decoding.
	BadFrames int64
}

// Stats returns a snapshot of the resilience counters.
func (t *TCPNetwork) Stats() TCPStats {
	return TCPStats{Retries: t.retries.Load(), Reconnects: t.reconnects.Load(), BadFrames: t.badFrames.Load()}
}

// Register implements Network: it binds a TCP listener on addr (which may
// use port 0; see ListenAddr for the resolved address) and pumps inbound
// envelopes into the inbox.
func (t *TCPNetwork) Register(addr string, inbox chan<- Envelope) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrPeerClosed
	}
	if _, dup := t.listeners[addr]; dup {
		return fmt.Errorf("%w: %s", ErrDupAddress, addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	real := ln.Addr().String()
	t.listeners[real] = ln
	t.inboxes[real] = inbox
	if real != addr {
		// Port-0 bind: remember the resolved address under the request
		// string so ListenAddr("127.0.0.1:0") works, without occupying a
		// listener slot — repeated ephemeral binds each get a fresh port.
		// The alias tracks the most recent such registration.
		t.aliases[addr] = real
	}
	t.wg.Add(1)
	go t.acceptLoop(ln, real, inbox)
	return nil
}

// ListenAddr resolves the actual listen address for a registration made
// with a port-0 bind; when the same request string was registered more
// than once, it resolves to the most recent registration.
func (t *TCPNetwork) ListenAddr(addr string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if real, ok := t.aliases[addr]; ok {
		return real
	}
	if ln, ok := t.listeners[addr]; ok {
		return ln.Addr().String()
	}
	return addr
}

func (t *TCPNetwork) acceptLoop(ln net.Listener, real string, inbox chan<- Envelope) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			if cerr := conn.Close(); cerr != nil {
				_ = cerr
			}
			return
		}
		t.inbound[conn] = real
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn, inbox)
	}
}

func (t *TCPNetwork) readLoop(conn net.Conn, inbox chan<- Envelope) {
	defer t.wg.Done()
	defer func() {
		if err := conn.Close(); err != nil {
			_ = err // already closing; nothing useful to do
		}
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	fr := frameReader{br: bufio.NewReaderSize(conn, 64*1024), free: &t.free}
	for {
		env, err := fr.next()
		if err != nil {
			// Closed, broken, or (counted) not this protocol: hang up; a bad
			// frame is never skipped over.
			if errors.Is(err, errBadFrame) {
				t.badFrames.Add(1)
			}
			return
		}
		select {
		case inbox <- env:
		default:
			// Inbox overrun: drop, as the in-memory transport does.
		}
	}
}

// frameReader reads one connection's frames. hdr is its header buffer,
// reused frame to frame (decoding copies out what the envelope keeps);
// free, when set, lends Data buffers that receivers recycled.
type frameReader struct {
	br   *bufio.Reader
	hdr  []byte
	free *freeList
}

// next reads one envelope frame. Connection errors pass through (io.EOF
// between frames is a clean hang-up); wrong magic, a length over its cap or
// an undecodable header is errBadFrame. Msg.Data is the receiver's to keep,
// or to hand back with Recycle once it is done with every byte.
func (fr *frameReader) next() (Envelope, error) {
	var env Envelope
	var pre [framePrefix]byte
	if _, err := io.ReadFull(fr.br, pre[:]); err != nil {
		return env, err
	}
	hlen := binary.LittleEndian.Uint32(pre[len(frameMagic):])
	dlen := binary.LittleEndian.Uint32(pre[len(frameMagic)+4:])
	if string(pre[:len(frameMagic)]) != frameMagic || hlen == 0 || hlen > maxHeader || dlen > MaxData {
		return env, errBadFrame
	}
	hdr, err := readInto(fr.br, fr.hdr, int(hlen))
	if err != nil {
		return env, err
	}
	fr.hdr = hdr
	data, err := readInto(fr.br, fr.free.take(int(dlen)), int(dlen))
	if err != nil {
		return env, err
	}
	if err := json.Unmarshal(hdr, &env); err != nil {
		return env, errBadFrame
	}
	env.Msg.Data = data // raw bytes only: a "data" field in the header is ignored
	return env, nil
}

// readInto reads exactly n bytes into buf when it has the capacity, and
// through readGrowing otherwise: a buffer already in hand costs nothing,
// and a new one is never sized by a claimed length alone.
func readInto(r io.Reader, buf []byte, n int) ([]byte, error) {
	if n == 0 || cap(buf) < n {
		return readGrowing(r, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readGrowing reads exactly n bytes into a fresh buffer (nil for n = 0) that
// the claimed n sizes only up to readChunk; past that bytes.Buffer grows it
// as bytes arrive, so a lying length costs a constant plus what was actually
// sent, never n. The MinRead of slack keeps ReadFrom from regrowing a buffer
// that is exactly full.
func readGrowing(r io.Reader, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	var b bytes.Buffer
	b.Grow(min(n, readChunk) + bytes.MinRead)
	if _, err := io.CopyN(&b, r, int64(n)); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Recycle hands back a Msg.Data this network delivered, once the receiver
// is done with every byte of it: a later frame may be read into it. The
// free list keeps the last recycleSlots buffers handed back, dropping the
// oldest when full, and lends one only to a frame it fits within 2× of the
// frame's length, so a run of small frames never pins big buffers.
func (t *TCPNetwork) Recycle(data []byte) { t.free.put(data) }

// freeList is a bounded LIFO of recycled buffers, safe for concurrent use:
// every read loop takes from it, and receivers put back.
type freeList struct {
	mu   sync.Mutex
	bufs [][]byte
}

// put adds b on top, evicting the oldest entry when the list is full.
func (l *freeList) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	l.mu.Lock()
	if len(l.bufs) == recycleSlots {
		l.bufs = slices.Delete(l.bufs, 0, 1)
	}
	l.bufs = append(l.bufs, b[:0])
	l.mu.Unlock()
}

// take removes and returns the most recently put buffer of capacity n to
// 2n, or nil when there is none (or no list).
func (l *freeList) take(n int) []byte {
	if l == nil || n == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.bufs) - 1; i >= 0; i-- {
		if b := l.bufs[i]; cap(b) >= n && cap(b) <= 2*n {
			l.bufs = slices.Delete(l.bufs, i, i+1)
			return b
		}
	}
	return nil
}

// Unregister implements Network. addr may be either the resolved listen
// address or the original port-0 request string. Besides the listener,
// the peer's accepted inbound connections are closed too — leaving them
// open kept remote send paths alive long after the peer was gone.
func (t *TCPNetwork) Unregister(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	real := addr
	if r, ok := t.aliases[addr]; ok {
		real = r
	}
	ln, ok := t.listeners[real]
	if !ok {
		return
	}
	if err := ln.Close(); err != nil {
		_ = err
	}
	delete(t.listeners, real)
	delete(t.inboxes, real)
	for a, r := range t.aliases {
		if r == real {
			delete(t.aliases, a)
		}
	}
	for conn, owner := range t.inbound {
		if owner == real {
			if err := conn.Close(); err != nil {
				_ = err
			}
		}
	}
}

// Send implements Network: it reuses or dials a connection to env.To and
// writes one frame — head, then Msg.Data straight from the caller's slice,
// in one vectored write — under a write deadline; an envelope over the caps
// fails with ErrFrameTooLarge first. Failed attempts — dial or write — are
// retried up to RetryMax times with capped exponential backoff and
// deterministic jitter; a broken cached connection is dropped between
// attempts, so the retry path doubles as automatic reconnect. When every
// attempt fails, the error names the peer and the attempt count and wraps
// the last cause — ErrUnknownPeer for an unreachable peer, the actual write
// error for a write that kept failing on freshly dialed connections — so
// failure records in distributed runs say which peer and how many tries.
func (t *TCPNetwork) Send(env Envelope) error {
	head, err := frameHead(env)
	if err != nil {
		return fmt.Errorf("send %s: %w", env.To, err)
	}

	var lastErr error
	attempts := t.RetryMax + 1
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			t.retries.Add(1)
			if !t.backoff(attempt) {
				return ErrPeerClosed // network closed mid-backoff
			}
		}
		c, err := t.connTo(env.To)
		if err != nil {
			if err == ErrPeerClosed {
				return err
			}
			lastErr = err
			continue
		}
		c.mu.Lock()
		if t.WriteTimeout > 0 {
			_ = c.conn.SetWriteDeadline(time.Now().Add(t.WriteTimeout))
		}
		bufs := net.Buffers{head, env.Msg.Data} // WriteTo consumes it: rebuilt per attempt
		_, err = bufs.WriteTo(c.conn)
		c.mu.Unlock()
		if err == nil {
			return nil
		}
		lastErr = fmt.Errorf("send %s: %w", env.To, err)
		t.dropConn(env.To, c)
		t.reconnects.Add(1)
	}
	return fmt.Errorf("send to %s failed after %d attempt(s): %w", env.To, attempts, lastErr)
}

// frameHead returns the prefix and JSON header of env's frame: everything
// but Msg.Data, which follows it on the wire as is.
func frameHead(env Envelope) ([]byte, error) {
	dlen := len(env.Msg.Data)
	env.Msg.Data = nil
	hdr, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	if len(hdr) > maxHeader || dlen > MaxData {
		return nil, fmt.Errorf("%w (header %d B of %d, data %d B of %d)", ErrFrameTooLarge, len(hdr), maxHeader, dlen, MaxData)
	}
	head := append(make([]byte, 0, framePrefix+len(hdr)), frameMagic...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(hdr)))
	head = binary.LittleEndian.AppendUint32(head, uint32(dlen))
	return append(head, hdr...), nil
}

// backoff waits the capped exponential delay before retry `attempt`
// (1-based), jittered by a factor in [0.5, 1.0) from a seeded stream so
// backoff schedules are reproducible run to run. The wait aborts — and
// backoff returns false — the moment the network is Closed, so shutdown
// never stalls behind a sleeping retry.
func (t *TCPNetwork) backoff(attempt int) bool {
	d := t.BackoffBase
	if d <= 0 {
		return true
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if t.BackoffMax > 0 && d >= t.BackoffMax {
			d = t.BackoffMax
			break
		}
	}
	if t.BackoffMax > 0 && d > t.BackoffMax {
		d = t.BackoffMax
	}
	t.jitterMu.Lock()
	factor := 0.5 + 0.5*t.jitter.Float64()
	t.jitterMu.Unlock()
	timer := time.NewTimer(time.Duration(float64(d) * factor))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-t.closeCh:
		return false
	}
}

func (t *TCPNetwork) connTo(addr string) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrPeerClosed
	}
	if c, ok := t.conns[addr]; ok {
		t.mu.Unlock()
		return c, nil
	}
	timeout := t.DialTimeout
	t.mu.Unlock()

	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnknownPeer, addr, err)
	}
	c := &tcpConn{conn: conn}
	t.mu.Lock()
	defer t.mu.Unlock()
	if existing, ok := t.conns[addr]; ok {
		// Lost the race; keep the established one.
		if err := conn.Close(); err != nil {
			_ = err
		}
		return existing, nil
	}
	t.conns[addr] = c
	return c, nil
}

func (t *TCPNetwork) dropConn(addr string, c *tcpConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.conns[addr]; ok && cur == c {
		delete(t.conns, addr)
		if err := c.conn.Close(); err != nil {
			_ = err
		}
	}
}

// Close shuts down all listeners and cached connections and waits for the
// pump goroutines to drain.
func (t *TCPNetwork) Close() {
	t.mu.Lock()
	if !t.closed && t.closeCh != nil {
		close(t.closeCh) // interrupt any Send sleeping in backoff
	}
	t.closed = true
	for _, ln := range t.listeners {
		if err := ln.Close(); err != nil {
			_ = err
		}
	}
	t.listeners = make(map[string]net.Listener)
	t.inboxes = make(map[string]chan<- Envelope)
	t.aliases = make(map[string]string)
	for _, c := range t.conns {
		if err := c.conn.Close(); err != nil {
			_ = err
		}
	}
	t.conns = make(map[string]*tcpConn)
	// Inbound connections must be closed too: their readLoops otherwise
	// block in Read until the REMOTE closes, and wg.Wait would deadlock
	// when a sender on another network keeps its side open.
	for conn := range t.inbound {
		if err := conn.Close(); err != nil {
			_ = err
		}
	}
	t.mu.Unlock()
	t.wg.Wait()
}
