package main

import (
	"flag"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"scalefree"
)

// freePort reserves an ephemeral TCP port and returns "127.0.0.1:port".
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestRunBadFlags(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	if err := run([]string{"-join", "teleport"}, &buf); err == nil {
		t.Fatal("unknown join strategy should fail")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Fatal("bad flag should fail")
	}
}

// TestRunRefusesBadFlagsBeforeRegistering: each bad value is refused by
// flag name before the peer registers. They used to surface only after
// it had registered (an unknown -alg, -ttl < 1), to panic there (a
// non-positive -status), or to silently become the library's 200 ms
// (-window 0, against a documented 500 ms default).
func TestRunRefusesBadFlagsBeforeRegistering(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-query", "x", "-alg", "bogus"}, "-alg"},
		{[]string{"-query", "x", "-ttl", "0"}, "-ttl"},
		{[]string{"-query", "x", "-window", "0"}, "-window"},
		{[]string{"-query", "x", "-window", "-1ms"}, "-window"},
		{[]string{"-status", "0"}, "-status"},
		{[]string{"-status", "-1s"}, "-status"},
	} {
		var buf strings.Builder
		err := run(append([]string{"-listen", freePort(t)}, c.args...), &buf)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%v: err %v, want %s refused by name", c.args, err, c.flag)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: the peer started before the refusal:\n%s", c.args, buf.String())
		}
	}
}

func TestRunQueryAgainstBootstrap(t *testing.T) {
	t.Parallel()
	// Start a bootstrap peer holding content, on a real TCP transport.
	bootAddr := freePort(t)
	bootNet := scalefree.NewTCPNetwork()
	defer bootNet.Close()
	boot, err := scalefree.NewPeer(scalefree.PeerConfig{
		Addr: bootAddr, M: 2, TauSub: 4, Seed: 1,
		Keys:           []string{"alpha"},
		DiscoverWindow: 150 * time.Millisecond,
	}, bootNet)
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()

	// peerd joins it, queries for the key, and exits.
	var buf strings.Builder
	var mu sync.Mutex
	out := &lockedWriter{mu: &mu, b: &buf}
	err = run([]string{
		"-listen", freePort(t),
		"-bootstrap", bootAddr,
		"-join", "dapa",
		"-query", "alpha",
		"-alg", "fl",
		"-ttl", "4",
		"-window", "300ms",
		"-seed", "7",
	}, out)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := buf.String()
	mu.Unlock()
	if !strings.Contains(got, "joined via") {
		t.Errorf("peerd should report the join:\n%s", got)
	}
	if !strings.Contains(got, "1 hits") {
		t.Errorf("peerd should find alpha on the bootstrap:\n%s", got)
	}
}

func TestRunQueryMiss(t *testing.T) {
	t.Parallel()
	bootAddr := freePort(t)
	bootNet := scalefree.NewTCPNetwork()
	defer bootNet.Close()
	boot, err := scalefree.NewPeer(scalefree.PeerConfig{
		Addr: bootAddr, M: 2, TauSub: 4, Seed: 2,
		DiscoverWindow: 150 * time.Millisecond,
	}, bootNet)
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()

	var buf strings.Builder
	err = run([]string{
		"-listen", freePort(t),
		"-bootstrap", bootAddr,
		"-query", "no-such-key",
		"-window", "200ms",
		"-seed", "8",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 hits") {
		t.Errorf("missing key should yield 0 hits:\n%s", buf.String())
	}
}

func TestRunJoinUnreachableBootstrap(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	err := run([]string{
		"-listen", freePort(t),
		"-bootstrap", "127.0.0.1:1", // nothing listens here
		"-query", "x",
		"-window", "100ms",
	}, &buf)
	if err == nil {
		t.Fatal("unreachable bootstrap should fail the join")
	}
}

// lockedWriter guards a strings.Builder for cross-goroutine writes.
type lockedWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

// TestMainHelpExitsZero runs main in a child copy of the test binary:
// -h prints the usage and exits 0.
func TestMainHelpExitsZero(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		// Child: the arguments after "--" are the command line.
		os.Args = append([]string{"peerd"}, args...)
		main()
		return
	}
	t.Parallel()
	out, err := exec.Command(os.Args[0], "-test.run=^TestMainHelpExitsZero$", "--", "-h").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "Usage of peerd") {
		t.Errorf("peerd -h: %v, output:\n%s", err, out)
	}
}
