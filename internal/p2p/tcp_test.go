package p2p

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	gonet "net"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTCPSendToDeadPeer(t *testing.T) {
	t.Parallel()
	net := NewTCPNetwork()
	t.Cleanup(net.Close)
	err := net.Send(Envelope{To: "127.0.0.1:1"}) // reserved port, refused
	if err == nil {
		t.Fatal("send to dead address should fail")
	}
}

func TestTCPUnregisterStopsDelivery(t *testing.T) {
	t.Parallel()
	net := NewTCPNetwork()
	t.Cleanup(net.Close)
	inbox := make(chan Envelope, 4)
	if err := net.Register("127.0.0.1:0", inbox); err != nil {
		t.Fatal(err)
	}
	addr := net.ListenAddr("127.0.0.1:0")
	if err := net.Send(Envelope{From: "x", To: addr, Msg: Message{Kind: KindCoord}}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-inbox:
		if env.Msg.Kind != KindCoord {
			t.Fatalf("got %v", env.Msg.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("envelope not delivered over TCP")
	}
	net.Unregister(addr)
	// The cached conn may still accept a write, but eventually sends must
	// fail once the connection drops; at minimum re-registration works.
	if err := net.Register("127.0.0.1:0", make(chan Envelope, 1)); err != nil {
		t.Fatalf("re-register: %v", err)
	}
}

// TestTCPCloseWithLivePeerOnOtherNetwork is the regression test for the
// Close deadlock: closing a network that holds an ESTABLISHED inbound
// connection from a still-running remote network must not block waiting
// for the remote to hang up. (Before the fix, Close only closed listeners
// and outbound conns; inbound readLoops blocked in Read forever.)
func TestTCPCloseWithLivePeerOnOtherNetwork(t *testing.T) {
	t.Parallel()
	netA := NewTCPNetwork()
	netB := NewTCPNetwork()
	defer netB.Close()

	inbox := make(chan Envelope, 1)
	if err := netA.Register("127.0.0.1:0", inbox); err != nil {
		t.Fatal(err)
	}
	addr := netA.ListenAddr("127.0.0.1:0")
	if err := netB.Send(Envelope{From: "b", To: addr, Msg: Message{Kind: KindCoord}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inbox:
	case <-time.After(2 * time.Second):
		t.Fatal("envelope not delivered over TCP")
	}
	// netB's dial created an inbound connection on netA, and netB caches
	// the outbound side, keeping it open. Closing netA must still return.
	done := make(chan struct{})
	go func() {
		netA.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("TCPNetwork.Close deadlocked on a live inbound connection")
	}
}

// TestTCPDoublePortZeroRegister is the regression test for the ephemeral-
// bind collision: the second Register("127.0.0.1:0") used to fail with
// ErrDupAddress because the first registration occupied the literal
// "host:0" key. Both binds must coexist and deliver independently.
func TestTCPDoublePortZeroRegister(t *testing.T) {
	t.Parallel()
	tn := NewTCPNetwork()
	t.Cleanup(tn.Close)

	in1 := make(chan Envelope, 1)
	if err := tn.Register("127.0.0.1:0", in1); err != nil {
		t.Fatal(err)
	}
	addr1 := tn.ListenAddr("127.0.0.1:0")

	in2 := make(chan Envelope, 1)
	if err := tn.Register("127.0.0.1:0", in2); err != nil {
		t.Fatalf("second port-0 register: %v", err)
	}
	addr2 := tn.ListenAddr("127.0.0.1:0")
	if addr1 == addr2 {
		t.Fatalf("both ephemeral binds resolved to %s", addr1)
	}

	for _, c := range []struct {
		addr  string
		inbox chan Envelope
	}{{addr1, in1}, {addr2, in2}} {
		if err := tn.Send(Envelope{From: "x", To: c.addr, Msg: Message{Kind: KindCoord}}); err != nil {
			t.Fatal(err)
		}
		select {
		case env := <-c.inbox:
			if env.Msg.Kind != KindCoord {
				t.Fatalf("got %v", env.Msg.Kind)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("no delivery to %s", c.addr)
		}
	}
}

// TestTCPSendSurfacesWriteError is the regression test for the masked
// encode failure: when the dial succeeds but every write attempt fails,
// Send used to report ErrUnknownPeer, hiding the real transport error.
// The remote here accepts and immediately closes, so a large write runs
// into a reset on both attempts.
func TestTCPSendSurfacesWriteError(t *testing.T) {
	t.Parallel()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
		}
	}()

	tn := NewTCPNetwork()
	t.Cleanup(tn.Close)
	// The payload must exceed the kernel's socket buffering so the write
	// blocks until the remote's reset arrives instead of being absorbed.
	huge := make([]byte, 16<<20)
	err = tn.Send(Envelope{From: "x", To: ln.Addr().String(), Msg: Message{Kind: KindCoord, Data: huge}})
	if err == nil {
		t.Fatal("send to a resetting remote should fail")
	}
	if errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("write failure misreported as unknown peer: %v", err)
	}
}

// TestFrameHeadGolden pins the exact frame head — prefix and JSON header —
// of the three envelope shapes internal/coord's sendWire builds: a result
// (ID "result", the spec in Key, the record raw in Data), a control message
// (its JSON in Data only) and a frame with no Data at all. Coordinators and
// workers of one build must keep agreeing on these bytes whatever else the
// Message type gains or loses.
func TestFrameHeadGolden(t *testing.T) {
	t.Parallel()
	const (
		worker = "127.0.0.1:41001"
		coord  = "127.0.0.1:40000"
	)
	record := []byte{0x10, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}
	control := []byte(`{"t":"claim","w":"127.0.0.1:41001","r":0}`)
	for _, c := range []struct {
		name string
		env  Envelope
		want string
	}{
		{"result", Envelope{From: worker, To: coord, Msg: Message{Kind: KindCoord, ID: "result", Key: "fig9", Data: record}},
			"SFP\x02" + "\x63\x00\x00\x00" + "\x08\x00\x00\x00" +
				`{"from":"127.0.0.1:41001","to":"127.0.0.1:40000","msg":{"kind":"coord","id":"result","key":"fig9"}}`},
		{"control", Envelope{From: worker, To: coord, Msg: Message{Kind: KindCoord, Data: control}},
			"SFP\x02" + "\x48\x00\x00\x00" + "\x29\x00\x00\x00" +
				`{"from":"127.0.0.1:41001","to":"127.0.0.1:40000","msg":{"kind":"coord"}}`},
		{"empty data", Envelope{From: coord, To: worker, Msg: Message{Kind: KindCoord}},
			"SFP\x02" + "\x48\x00\x00\x00" + "\x00\x00\x00\x00" +
				`{"from":"127.0.0.1:40000","to":"127.0.0.1:41001","msg":{"kind":"coord"}}`},
	} {
		head, err := frameHead(c.env)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(head) != c.want {
			t.Fatalf("%s frame head changed:\n got %q\nwant %q", c.name, head, c.want)
		}
		fr := frameReader{br: bufio.NewReader(bytes.NewReader(append(head, c.env.Msg.Data...)))}
		got, err := fr.next()
		if err != nil || got.From != c.env.From || got.To != c.env.To || got.Msg.Kind != KindCoord ||
			got.Msg.ID != c.env.Msg.ID || got.Msg.Key != c.env.Msg.Key || !bytes.Equal(got.Msg.Data, c.env.Msg.Data) {
			t.Fatalf("%s frame does not read back: %+v, %v", c.name, got, err)
		}
	}
}

// wireFrame is env's frame as Send writes it.
func wireFrame(t *testing.T, env Envelope) []byte {
	t.Helper()
	head, err := frameHead(env)
	if err != nil {
		t.Fatal(err)
	}
	return append(head, env.Msg.Data...)
}

// expectHangup fails unless the remote end closes conn.
func expectHangup(t *testing.T, conn gonet.Conn, why string) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("%s: the receiver wrote back instead of hanging up", why)
	} else if ne, ok := err.(gonet.Error); ok && ne.Timeout() {
		t.Fatalf("%s: connection still open (read timed out)", why)
	}
}

// TestTCPOversizedFrameSurvival pins what a frame over the cap costs: its
// own connection and nothing else. The receiver refuses the frame at its
// prefix — before reading, let alone allocating, the claimed bytes — hangs
// up, and counts it; the endpoint keeps serving, so the next dial delivers.
// (Under the newline framing the oversized line was skipped and the
// connection kept; a length prefix that lies cannot be skipped safely.)
func TestTCPOversizedFrameSurvival(t *testing.T) {
	t.Parallel()
	tn := NewTCPNetwork()
	t.Cleanup(tn.Close)
	inbox := make(chan Envelope, 4)
	if err := tn.Register("127.0.0.1:0", inbox); err != nil {
		t.Fatal(err)
	}
	addr := tn.ListenAddr("127.0.0.1:0")
	ping := Envelope{From: "x", To: addr, Msg: Message{Kind: KindCoord}}

	conn, err := gonet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	big := wireFrame(t, ping)
	binary.LittleEndian.PutUint32(big[len(frameMagic)+4:], MaxData+1)
	if _, err := conn.Write(append(big, wireFrame(t, ping)...)); err != nil {
		t.Fatal(err)
	}
	expectHangup(t, conn, "oversized frame")
	if st := tn.Stats(); st.BadFrames != 1 {
		t.Fatalf("BadFrames = %d after one oversized frame, want 1", st.BadFrames)
	}
	select {
	case env := <-inbox:
		t.Fatalf("frame behind the oversized one was delivered: %+v", env)
	default:
	}

	// The sender's side of the same cap: refused before a byte moves, with
	// an error that says so, and nothing counted against the receiver.
	err = tn.Send(Envelope{From: "x", To: addr, Msg: Message{Kind: KindCoord, Data: make([]byte, MaxData+1)}})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Send of an oversized envelope = %v, want ErrFrameTooLarge", err)
	}
	if err := tn.Send(ping); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-inbox:
		if env.Msg.Kind != KindCoord {
			t.Fatalf("got %v", env.Msg.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("endpoint did not survive the oversized frame")
	}
	if st := tn.Stats(); st.BadFrames != 1 || st.Retries != 0 {
		t.Fatalf("stats after recovery = %+v, want BadFrames 1 and no retries", st)
	}
}

// TestTCPDataArrivesIntact sends payloads around every size the reader
// treats differently — none, small, the read chunk and its neighbours, a
// multi-chunk one — over one connection and checks each arrives byte for
// byte, with the header fields beside it.
func TestTCPDataArrivesIntact(t *testing.T) {
	t.Parallel()
	recv, send := NewTCPNetwork(), NewTCPNetwork()
	t.Cleanup(recv.Close)
	t.Cleanup(send.Close)
	inbox := make(chan Envelope, 1)
	if err := recv.Register("127.0.0.1:0", inbox); err != nil {
		t.Fatal(err)
	}
	addr := recv.ListenAddr("127.0.0.1:0")
	for i, n := range []int{0, 1, 4096, readChunk - 1, readChunk, readChunk + 1, 3*readChunk + 17} {
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(j*31 + i)
		}
		if n == 0 {
			data = nil
		}
		want := Envelope{From: "w", To: addr, Msg: Message{Kind: KindCoord, ID: "id", Key: strconv.Itoa(i), Data: data}}
		if err := send.Send(want); err != nil {
			t.Fatalf("send %d B: %v", n, err)
		}
		select {
		case got := <-inbox:
			if got.From != want.From || got.Msg.Kind != KindCoord || got.Msg.ID != "id" || got.Msg.Key != strconv.Itoa(i) || !bytes.Equal(got.Msg.Data, data) {
				t.Fatalf("%d B payload arrived damaged (got %d B, header %+v)", n, len(got.Msg.Data), got.Msg.Kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d B payload not delivered", n)
		}
	}
	if st := recv.Stats(); st.BadFrames != 0 {
		t.Fatalf("BadFrames = %d on a clean stream", st.BadFrames)
	}
}

// TestTCPMalformedFramesIgnored pins what bytes that are not a frame of this
// protocol cost: their own connection. Whatever a stranger writes — noise, a
// newline-delimited JSON envelope from a peer built before the binary
// framing, a well-framed header that is not an envelope — the receiver hangs
// up, counts it, and delivers nothing from that connection, not even a valid
// frame queued behind the bad one; the endpoint itself is unharmed and the
// next connection's frame arrives.
func TestTCPMalformedFramesIgnored(t *testing.T) {
	t.Parallel()
	tnet := NewTCPNetwork()
	t.Cleanup(tnet.Close)
	inbox := make(chan Envelope, 16)
	if err := tnet.Register("127.0.0.1:0", inbox); err != nil {
		t.Fatal(err)
	}
	addr := tnet.ListenAddr("127.0.0.1:0")
	valid := wireFrame(t, Envelope{From: "x", To: addr, Msg: Message{Kind: KindCoord, ID: "1"}})
	noHeader := append([]byte(nil), valid[:framePrefix]...)
	binary.LittleEndian.PutUint32(noHeader[len(frameMagic):], 0)
	notJSON := append([]byte(nil), valid...)
	notJSON[framePrefix] = '<'

	for i, c := range []struct {
		name  string
		bytes []byte
	}{
		{"noise", []byte("this is not json\n{\"also\":\n")},
		{"old newline JSON", []byte(`{"from":"x","to":"` + addr + `","msg":{"kind":"coord","id":"1"}}` + "\n")},
		{"wrong version", append([]byte("SFP\x01"), valid[len(frameMagic):]...)},
		{"empty header", noHeader},
		{"header not an envelope", notJSON},
	} {
		conn, err := gonet.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(c.bytes, valid...)); err != nil {
			t.Fatal(err)
		}
		expectHangup(t, conn, c.name)
		_ = conn.Close()
		if st := tnet.Stats(); st.BadFrames != int64(i+1) {
			t.Fatalf("%s: BadFrames = %d, want %d", c.name, st.BadFrames, i+1)
		}
		select {
		case env := <-inbox:
			t.Fatalf("%s: delivered %+v from a refused connection", c.name, env)
		default:
		}
	}

	conn, err := gonet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(valid); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-inbox:
		if env.Msg.Kind != KindCoord {
			t.Fatalf("got %v", env.Msg.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("valid frame after the refused connections never arrived")
	}
}

// TestTCPUnregisterClosesInbound pins the other half of the unregister
// path: the accepted inbound connections of the unregistered listener are
// hung up, not left open for remotes to keep writing into.
func TestTCPUnregisterClosesInbound(t *testing.T) {
	t.Parallel()
	tn := NewTCPNetwork()
	t.Cleanup(tn.Close)
	inbox := make(chan Envelope, 1)
	if err := tn.Register("127.0.0.1:0", inbox); err != nil {
		t.Fatal(err)
	}
	addr := tn.ListenAddr("127.0.0.1:0")

	conn, err := gonet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	// Deliver one frame so the connection is provably accepted and pumping
	// before the unregister.
	if _, err := conn.Write(wireFrame(t, Envelope{From: "x", To: addr, Msg: Message{Kind: KindCoord}})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inbox:
	case <-time.After(2 * time.Second):
		t.Fatal("envelope not delivered before unregister")
	}

	tn.Unregister(addr)
	expectHangup(t, conn, "unregister")
}

// TestTCPReconnectAfterRemoteRestart pins the automatic-reconnect path:
// a cached outbound connection broken by a remote restart must be
// re-dialed by Send's retry loop, with the resilience counters showing
// the reconnect.
func TestTCPReconnectAfterRemoteRestart(t *testing.T) {
	t.Parallel()
	sender := NewTCPNetwork()
	t.Cleanup(sender.Close)

	remote := NewTCPNetwork()
	inbox := make(chan Envelope, 16)
	if err := remote.Register("127.0.0.1:0", inbox); err != nil {
		t.Fatal(err)
	}
	addr := remote.ListenAddr("127.0.0.1:0")
	if err := sender.Send(Envelope{From: "x", To: addr, Msg: Message{Kind: KindCoord}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inbox:
	case <-time.After(2 * time.Second):
		t.Fatal("first envelope not delivered")
	}

	// Restart the remote on the same address: the sender's cached conn is
	// now broken and must be replaced by the retry loop.
	remote.Close()
	restarted := NewTCPNetwork()
	t.Cleanup(restarted.Close)
	inbox2 := make(chan Envelope, 16)
	if err := restarted.Register(addr, inbox2); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}

	// The first post-restart write may be absorbed by the kernel before
	// the reset arrives, so send until one lands.
	deadline := time.Now().Add(5 * time.Second)
	delivered := false
	for time.Now().Before(deadline) && !delivered {
		_ = sender.Send(Envelope{From: "x", To: addr, Msg: Message{Kind: KindCoord}})
		select {
		case <-inbox2:
			delivered = true
		case <-time.After(50 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("sender never reconnected to the restarted remote")
	}
	if st := sender.Stats(); st.Reconnects == 0 {
		t.Fatalf("reconnect not recorded: %+v", st)
	}
}

// TestTCPSendRetriesCountRetries pins that failed attempts increment the
// retry counter and still surface the dial error.
func TestTCPSendRetriesCountRetries(t *testing.T) {
	t.Parallel()
	tn := NewTCPNetwork()
	t.Cleanup(tn.Close)
	tn.BackoffBase = time.Millisecond
	if err := tn.Send(Envelope{To: "127.0.0.1:1"}); err == nil {
		t.Fatal("send to a dead address should fail")
	} else if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("dial failure should surface as ErrUnknownPeer: %v", err)
	}
	if st := tn.Stats(); st.Retries != int64(tn.RetryMax) {
		t.Fatalf("retries %d, want %d", st.Retries, tn.RetryMax)
	}
}

// TestTCPRegisterAfterClose verifies the closed network rejects new
// registrations instead of leaking listeners.
func TestTCPRegisterAfterClose(t *testing.T) {
	t.Parallel()
	net := NewTCPNetwork()
	net.Close()
	if err := net.Register("127.0.0.1:0", make(chan Envelope, 1)); err == nil {
		t.Fatal("register after close should fail")
	}
}

// TestTCPCloseInterruptsBackoff pins the shutdown latency fix: a Send
// sleeping in retry backoff must bail out the moment the network closes,
// not after its full jittered delay.
func TestTCPCloseInterruptsBackoff(t *testing.T) {
	t.Parallel()
	tn := NewTCPNetwork()
	tn.DialTimeout = 50 * time.Millisecond
	tn.RetryMax = 3
	tn.BackoffBase = 10 * time.Second // without the fix, Send stalls here
	tn.BackoffMax = 10 * time.Second

	done := make(chan error, 1)
	go func() {
		done <- tn.Send(Envelope{To: "127.0.0.1:1"}) // reserved port, refused
	}()
	time.Sleep(100 * time.Millisecond) // let Send fail once and enter backoff
	start := time.Now()
	tn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("send to a dead address should fail")
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("Send took %v to observe Close; backoff was not interrupted", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still sleeping in backoff long after Close")
	}
}

// TestTCPSendErrorNamesPeerAndAttempts pins the exhaustion diagnostics:
// the error must say which peer and how many attempts, and keep the
// underlying cause (ErrUnknownPeer for dial failures) in the chain.
func TestTCPSendErrorNamesPeerAndAttempts(t *testing.T) {
	t.Parallel()
	tn := NewTCPNetwork()
	defer tn.Close()
	tn.DialTimeout = 50 * time.Millisecond
	tn.RetryMax = 2
	tn.BackoffBase = time.Millisecond
	tn.BackoffMax = 2 * time.Millisecond

	const addr = "127.0.0.1:1"
	err := tn.Send(Envelope{To: addr})
	if err == nil {
		t.Fatal("send to a dead address should fail")
	}
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("cause lost from the chain: %v", err)
	}
	if !strings.Contains(err.Error(), addr) {
		t.Fatalf("error %q does not name the peer", err)
	}
	if !strings.Contains(err.Error(), "3 attempt(s)") {
		t.Fatalf("error %q does not report the attempt count", err)
	}
}
