package p2p

import (
	"runtime"
	"strconv"
	"testing"
	"time"
)

// Who owns Msg.Data: Send keeps no reference to it once it returns, so a
// sender may reuse one buffer for every envelope; a receiver owns what it
// is delivered, and a TCP receiver may hand it back with Recycle.

const ownedLen = 4096

// sendReusingBuffer sends n envelopes to `to` from one buffer: envelope i
// carries ownedLen bytes of value i+1 and ID i, and the buffer is clobbered
// the moment Send returns.
func sendReusingBuffer(t *testing.T, netw Network, to string, n int) {
	t.Helper()
	buf := make([]byte, ownedLen)
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		if err := netw.Send(Envelope{From: "src", To: to, Msg: Message{Kind: KindCoord, ID: strconv.Itoa(i), Data: buf}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		clear(buf)
	}
}

// checkIntact fails unless env carries, byte for byte, what its sender put
// in the buffer when it sent it.
func checkIntact(t *testing.T, env Envelope) {
	t.Helper()
	i, err := strconv.Atoi(env.Msg.ID)
	if err != nil || len(env.Msg.Data) != ownedLen {
		t.Fatalf("envelope %q arrived with %d B of data, want %d", env.Msg.ID, len(env.Msg.Data), ownedLen)
	}
	for _, b := range env.Msg.Data {
		if b != byte(i+1) {
			t.Fatalf("envelope %d arrived with the sender's later bytes (%#x): Send kept its buffer", i, b)
		}
	}
}

// drain returns what the inbox holds right now.
func drain(inbox chan Envelope) []Envelope {
	var got []Envelope
	for {
		select {
		case env := <-inbox:
			got = append(got, env)
		default:
			return got
		}
	}
}

func TestInMemorySendDoesNotRetainData(t *testing.T) {
	t.Parallel()
	const n = 32
	netw := NewInMemoryNetwork()
	inbox := make(chan Envelope, n)
	if err := netw.Register("dst", inbox); err != nil {
		t.Fatal(err)
	}
	sendReusingBuffer(t, netw, "dst", n)
	got := drain(inbox)
	if len(got) != n {
		t.Fatalf("%d of %d envelopes delivered", len(got), n)
	}
	for _, env := range got {
		checkIntact(t, env)
	}
}

// TestFaultySendDoesNotRetainData runs each fault class over the in-memory
// transport: a delayed or held-back envelope goes out after Send returned,
// so it must carry a copy of the sender's bytes, not the buffer.
func TestFaultySendDoesNotRetainData(t *testing.T) {
	t.Parallel()
	const n = 64
	for _, c := range []struct {
		name  string
		cfg   FaultConfig
		fired func(FaultStats) int64
	}{
		{"drop", FaultConfig{Seed: 1, Drop: 0.3}, func(s FaultStats) int64 { return s.Dropped }},
		{"dup", FaultConfig{Seed: 2, Dup: 0.5}, func(s FaultStats) int64 { return s.Duplicated }},
		{"delay", FaultConfig{Seed: 3, DelayProb: 0.5, MaxDelay: 2 * time.Millisecond}, func(s FaultStats) int64 { return s.Delayed }},
		{"reorder", FaultConfig{Seed: 4, Reorder: 0.5}, func(s FaultStats) int64 { return s.Reordered }},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			f := NewFaultyNetwork(NewInMemoryNetwork(), c.cfg)
			inbox := make(chan Envelope, 2*n)
			if err := f.Register("dst", inbox); err != nil {
				t.Fatal(err)
			}
			sendReusingBuffer(t, f, "dst", n)
			f.Flush()
			got := drain(inbox)
			st := f.Stats()
			if c.fired(st) == 0 || len(got) == 0 {
				t.Fatalf("the %s schedule never fired or delivered nothing: %+v", c.name, st)
			}
			for _, env := range got {
				checkIntact(t, env)
			}
		})
	}
}

// TestTCPSendDoesNotRetainData also recycles every envelope it checked, so
// later frames may be read into buffers that earlier ones arrived in.
func TestTCPSendDoesNotRetainData(t *testing.T) {
	t.Parallel()
	const n = 32
	recv, send := NewTCPNetwork(), NewTCPNetwork()
	t.Cleanup(recv.Close)
	t.Cleanup(send.Close)
	inbox := make(chan Envelope, n)
	if err := recv.Register("127.0.0.1:0", inbox); err != nil {
		t.Fatal(err)
	}
	sendReusingBuffer(t, send, recv.ListenAddr("127.0.0.1:0"), n)
	for i := 0; i < n; i++ {
		select {
		case env := <-inbox:
			checkIntact(t, env)
			recv.Recycle(env.Msg.Data)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d envelopes delivered", i, n)
		}
	}
}

// TestTCPRecycledReceiveAllocs: with every delivered Data recycled, an
// 84 KB result frame — a records-dist record — costs its sender and
// receiver together under 1 KB once the free list is warm, where a fresh
// Data buffer per frame costs its whole length. Not parallel: it reads the
// process-wide allocation counter.
func TestTCPRecycledReceiveAllocs(t *testing.T) {
	const frameLen, warm, frames = 84 << 10, 16, 64
	recv, send := NewTCPNetwork(), NewTCPNetwork()
	defer send.Close()
	defer recv.Close()
	inbox := make(chan Envelope, 1)
	if err := recv.Register("127.0.0.1:0", inbox); err != nil {
		t.Fatal(err)
	}
	env := Envelope{From: "127.0.0.1:41001", To: recv.ListenAddr("127.0.0.1:0"),
		Msg: Message{Kind: KindCoord, ID: "result", Key: "fig7", Data: make([]byte, frameLen)}}
	roundTrip := func(n int) {
		for i := 0; i < n; i++ {
			if err := send.Send(env); err != nil {
				t.Fatal(err)
			}
			recv.Recycle((<-inbox).Msg.Data)
		}
	}
	roundTrip(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	roundTrip(frames)
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / frames; per >= 1024 {
		t.Fatalf("a recycled %d B frame allocates %d B, want < 1 KB", frameLen, per)
	}
}

// TestTCPRecycleFreeListBounds pins the free list's two bounds: it never
// holds more than recycleSlots buffers (the oldest goes first), and a frame
// takes a buffer only within 2× of its length — the most recent such one —
// so a recycled big buffer never carries a small frame.
func TestTCPRecycleFreeListBounds(t *testing.T) {
	t.Parallel()
	var l freeList
	for i := 1; i <= 3*recycleSlots; i++ {
		l.put(make([]byte, i*100))
		if len(l.bufs) > recycleSlots {
			t.Fatalf("free list holds %d buffers after %d puts, cap %d", len(l.bufs), i, recycleSlots)
		}
	}
	if c := cap(l.bufs[0]); c != (2*recycleSlots+1)*100 {
		t.Fatalf("oldest kept buffer has cap %d: the list did not evict oldest first", c)
	}
	l.put(nil) // nothing to keep
	if len(l.bufs) != recycleSlots {
		t.Fatalf("free list holds %d buffers, want %d", len(l.bufs), recycleSlots)
	}
	for _, n := range []int{1, 100, 1000, 1199, 1200, 1201, 1600, 2400, 2401, 4800, 5000} {
		if b := l.take(n); b != nil && (cap(b) < n || cap(b) > 2*n) {
			t.Fatalf("a %d B frame took a buffer of cap %d", n, cap(b))
		}
	}

	var m freeList
	a, b := make([]byte, 1000), make([]byte, 1500)
	m.put(a)
	m.put(b)
	if got := m.take(1000); &got[:1][0] != &b[0] {
		t.Fatal("take did not return the most recently put buffer that fits")
	}
	if got := m.take(400); got != nil {
		t.Fatalf("a 400 B frame took a buffer of cap %d", cap(got))
	}

	// Through the read loop: a frame is read into a recycled buffer that
	// fits it, and never into one more than twice its length.
	recv, send := NewTCPNetwork(), NewTCPNetwork()
	t.Cleanup(recv.Close)
	t.Cleanup(send.Close)
	inbox := make(chan Envelope, 1)
	if err := recv.Register("127.0.0.1:0", inbox); err != nil {
		t.Fatal(err)
	}
	addr := recv.ListenAddr("127.0.0.1:0")
	big := make([]byte, 4<<20)
	recv.Recycle(big)
	for _, c := range []struct {
		n      int
		reuses bool
	}{{100 << 10, false}, {3 << 20, true}} {
		if err := send.Send(Envelope{From: "w", To: addr, Msg: Message{Kind: KindCoord, Data: make([]byte, c.n)}}); err != nil {
			t.Fatal(err)
		}
		var got []byte
		select {
		case env := <-inbox:
			got = env.Msg.Data
		case <-time.After(5 * time.Second):
			t.Fatalf("%d B frame not delivered", c.n)
		}
		if cap(got) > 2*c.n || (&got[0] == &big[0]) != c.reuses {
			t.Fatalf("%d B frame arrived in a buffer of cap %d (the recycled %d B one: %v)", c.n, cap(got), len(big), &got[0] == &big[0])
		}
	}
}
