// Command peerd runs a single live overlay peer on TCP. Peers discover
// each other and attach with the paper's local join protocols; queries can
// be issued from the command line of any peer.
//
// Start a bootstrap peer:
//
//	peerd -listen 127.0.0.1:7001 -keys alpha,beta
//
// Join more peers and search:
//
//	peerd -listen 127.0.0.1:7002 -bootstrap 127.0.0.1:7001 -join dapa -keys gamma
//	peerd -listen 127.0.0.1:7003 -bootstrap 127.0.0.1:7001 -join hapa \
//	      -query alpha -alg fl -ttl 5
//
// Without -query, peerd serves until interrupted, printing a status line
// every -status interval.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scalefree"
)

func main() {
	// -h prints the usage and exits 0.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "peerd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("peerd", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:7001", "TCP listen address (this peer's identity)")
		bootstrap = fs.String("bootstrap", "", "bootstrap peer address (empty: start a new overlay)")
		joinStrat = fs.String("join", "dapa", "join strategy: dapa|hapa|random")
		m         = fs.Int("m", 2, "links to establish when joining")
		kc        = fs.Int("kc", 40, "hard degree cutoff (0 = none)")
		tau       = fs.Int("tau", 4, "discovery TTL tau_sub")
		keys      = fs.String("keys", "", "comma-separated content keys to share")
		query     = fs.String("query", "", "issue one query, print hits, and exit")
		alg       = fs.String("alg", "fl", "query algorithm: fl|nf|rw")
		ttl       = fs.Int("ttl", 6, "query TTL")
		window    = fs.Duration("window", 500*time.Millisecond, "reply collection window")
		status    = fs.Duration("status", 10*time.Second, "status print interval")
		seed      = fs.Uint64("seed", uint64(os.Getpid()), "RNG seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var strategy scalefree.JoinStrategy
	switch *joinStrat {
	case "dapa":
		strategy = scalefree.JoinDAPA
	case "hapa":
		strategy = scalefree.JoinHAPA
	case "random":
		strategy = scalefree.JoinRandom
	default:
		return fmt.Errorf("unknown join strategy %q", *joinStrat)
	}
	// Every flag is judged before the peer registers: a bad one must not
	// cost a join, and NewTicker panics on a non-positive interval.
	switch scalefree.SearchAlg(*alg) {
	case scalefree.SearchFlood, scalefree.SearchNF, scalefree.SearchRW:
	default:
		return fmt.Errorf("-alg %q: unknown algorithm (want fl, nf or rw)", *alg)
	}
	if *ttl < 1 {
		return fmt.Errorf("-ttl %d must be >= 1", *ttl)
	}
	if *window <= 0 {
		return fmt.Errorf("-window %v must be > 0", *window)
	}
	if *status <= 0 {
		return fmt.Errorf("-status %v must be > 0", *status)
	}
	var keyList []string
	if *keys != "" {
		keyList = strings.Split(*keys, ",")
	}

	// Arm signal handling before any overlay state exists, so SIGINT or
	// SIGTERM at ANY point — mid-join, mid-query, or while serving — runs
	// the deferred peer.Leave, and the flush-on-close outbox delivers the
	// farewells instead of abandoning neighbors to their probe timeouts.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	net := scalefree.NewTCPNetwork()
	defer net.Close()
	peer, err := scalefree.NewPeer(scalefree.PeerConfig{
		Addr: *listen, M: *m, KC: *kc, TauSub: *tau,
		Keys: keyList, Seed: *seed, DiscoverWindow: *window,
	}, net)
	if err != nil {
		return err
	}
	defer peer.Leave()
	fmt.Fprintf(out, "peerd: listening on %s (m=%d kc=%d tau=%d keys=%v)\n", *listen, *m, *kc, *tau, keyList)

	if *bootstrap != "" {
		made, err := await(ctx, peer, out, func() (int, error) {
			return peer.Join(*bootstrap, strategy)
		})
		if err != nil {
			return fmt.Errorf("join via %s: %w", *bootstrap, err)
		}
		fmt.Fprintf(out, "peerd: joined via %s (%s), %d links\n", *bootstrap, strategy, made)
	}

	if *query != "" {
		res, err := await(ctx, peer, out, func() (scalefree.QueryResult, error) {
			return peer.Query(*query, scalefree.SearchAlg(*alg), *ttl)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "peerd: query %q (%s, ttl=%d): %d hits in %s\n",
			*query, *alg, *ttl, len(res.Hits), res.Elapsed.Round(time.Millisecond))
		for _, h := range res.Hits {
			fmt.Fprintf(out, "  hit: %s (degree %d)\n", h.Addr, h.Degree)
		}
		return nil
	}

	tick := time.NewTicker(*status)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			st := peer.Stats()
			fmt.Fprintf(out, "peerd: degree=%d sent=%d recv=%d queries=%d hits-served=%d\n",
				peer.Degree(), st.Sent, st.Received, st.QueriesSeen, st.HitsServed)
		case <-ctx.Done():
			fmt.Fprintf(out, "peerd: signal received, leaving overlay\n")
			return nil
		}
	}
}

// await runs fn while watching for a shutdown signal. On signal it calls
// peer.Leave — which unblocks an in-flight join or query (the peer stops
// accepting and the outbox flushes farewells) — then reports the
// operation's outcome. The fn goroutine always finishes: Leave forces its
// error return, so nothing leaks past run().
func await[T any](ctx context.Context, peer *scalefree.Peer, out io.Writer, fn func() (T, error)) (T, error) {
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := fn()
		ch <- result{v, err}
	}()
	select {
	case res := <-ch:
		return res.v, res.err
	case <-ctx.Done():
		fmt.Fprintf(out, "peerd: signal received, leaving overlay\n")
		peer.Leave()
		res := <-ch
		return res.v, res.err
	}
}
