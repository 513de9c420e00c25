// Command asdb-router is a thin cluster proxy for the asdb line protocol:
// it consistent-hashes streams across N primaries, co-locates the inputs
// of JOIN queries, fans read commands out to replicas, and retries
// @reqid-tagged ingest lines across a node's failover targets (the
// replicated dedup window keeps those retries exactly-once even when the
// original attempt applied before the link died).
//
// Usage:
//
//	asdb-router [-addr 127.0.0.1:7432] -node primary1[,replica1,replica2] [-node primary2...]
//	            [-retries N] [-retry-base D] [-retry-max D] [-seed N] [-op-timeout D]
//
// An @reqid-tagged ingest line gets 1 + -retries attempts (default 3
// retries; 0 means one attempt, a negative value is refused). During a
// failover the router follows the epoch automatically: a target answering
// "read-only replica" (not yet promoted) or "fenced: stale epoch" (an
// ex-primary that lost the failover) sends the ingest retry to the next
// failover target after a capped, seeded-jitter backoff.
//
// Each -node names one shard: a primary address followed by optional
// comma-separated replica addresses. Protocol clients connect to the
// router exactly as they would to a single asdbd; DATA lines are relayed
// byte-for-byte from whichever node renders them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/server"
)

type nodeFlags []cluster.Node

func (n *nodeFlags) String() string {
	parts := make([]string, len(*n))
	for i, node := range *n {
		parts[i] = strings.Join(append([]string{node.Primary}, node.Replicas...), ",")
	}
	return strings.Join(parts, " ")
}

func (n *nodeFlags) Set(v string) error {
	fields := strings.Split(v, ",")
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
		if fields[i] == "" {
			return fmt.Errorf("empty address in -node %q", v)
		}
	}
	*n = append(*n, cluster.Node{Primary: fields[0], Replicas: fields[1:]})
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7432", "listen address for protocol clients")
	retries := flag.Int("retries", 3, "failover retries for @reqid-tagged ingest (0 = one attempt)")
	retryBase := flag.Duration("retry-base", 0, "base backoff between ingest retries (0 = default 50ms)")
	retryMax := flag.Duration("retry-max", 0, "backoff cap between ingest retries (0 = default 2s)")
	seed := flag.Uint64("seed", 0, "backoff jitter seed (0 = from the clock)")
	opTimeout := flag.Duration("op-timeout", 0, "per-backend exchange timeout (0 = default 30s)")
	var nodes nodeFlags
	flag.Var(&nodes, "node", "one shard: primary[,replica...]; repeat for more shards")
	flag.Parse()

	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "asdb-router: at least one -node is required")
		os.Exit(2)
	}
	if *retries < 0 {
		fmt.Fprintf(os.Stderr, "asdb-router: -retries %d is negative\n", *retries)
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "asdb-router: ", log.LstdFlags)
	rt, err := cluster.NewRouter(nodes, logger, server.DialOptions{
		Retries:   *retries,
		RetryBase: *retryBase,
		RetryMax:  *retryMax,
		Seed:      *seed,
		OpTimeout: *opTimeout,
	})
	if err != nil {
		log.Fatalf("asdb-router: %v", err)
	}
	bound, err := rt.Listen(*addr)
	if err != nil {
		log.Fatalf("asdb-router: %v", err)
	}
	logger.Printf("routing %d node(s) on %s", len(nodes), bound)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- rt.Serve() }()
	select {
	case sig := <-sigc:
		logger.Printf("%s: shutting down", sig)
		rt.Close()
		// Serve returns nil once the listener closes under rt.closed.
		if err := <-done; err != nil {
			log.Fatalf("asdb-router: %v", err)
		}
	case err := <-done:
		if err != nil {
			log.Fatalf("asdb-router: %v", err)
		}
	}
}
