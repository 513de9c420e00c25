// Command asdbd is the accuracy-aware uncertain stream database daemon: it
// hosts one engine and serves the line protocol of repro/internal/server
// over TCP.
//
// Usage:
//
//	asdbd [-addr 127.0.0.1:7433] [-level 0.9] [-method analytical] [-seed 1]
//	      [-data-dir DIR] [-fsync always|interval|none] [-checkpoint-every N]
//	      [-debug-addr 127.0.0.1:7434] [-max-conns N] [-idle-timeout D]
//	      [-drain-timeout D] [-shed] [-shed-target-p99 D]
//	      [-repl-addr 127.0.0.1:7443 | -follow PRIMARY:7443]
//	      [-failover -failover-peers A,B -failover-self A]
//	      [-failover-suspect D] [-failover-probe D]
//	      [-promote-repl-addr ADDR] [-auto-rejoin]
//
// With -repl-addr set (requires -data-dir) the daemon is a replication
// primary: it ships its WAL to followers over that listener. With -follow
// set the daemon is a read-only follower: it syncs from the primary's
// replication listener (snapshot + WAL suffix), applies records through
// the normal recovery paths, and serves ATTACH/SUBSCRIBE/STATS/METRICS
// with results byte-identical to the primary's. A follower with -data-dir
// is durable: it journals the replicated records into its own WAL
// (write-through) and, after a restart, resumes from its recovered LSN
// instead of re-shipping history.
//
// Automatic failover (-failover, follower mode): the daemon probes the
// primary's heartbeat silence and, after its graded suspect window
// (rank 0 on the deterministic successor ladder waits -failover-suspect,
// rank k waits (1+k)×), promotes itself — journal an epoch bump, accept
// writes, and (with -promote-repl-addr) start shipping its own WAL.
// -failover-peers must list every replica's CLIENT address (the same
// value each gives as -failover-self; default -addr), identically on all
// of them: the addresses feed the ladder, are ROLE-probed before a
// lower rank may promote (a higher rank that already won makes this node
// stand down and follow the winner), and partition the promotion epochs
// so concurrent promotions can never journal the same epoch.
// Writes reaching the fenced ex-primary are rejected with the
// "fenced: stale epoch" sentinel that routing clients fail over on.
// With -auto-rejoin, a follower told by the primary that its WAL suffix
// diverged past an epoch change (a revived ex-primary) truncates the
// suffix, re-recovers, and re-follows automatically.
//
// Methods: none, analytical, bootstrap.
//
// With -debug-addr set the daemon serves an HTTP observability listener:
// /debug/metrics (Prometheus text format), /debug/vars (expvar, including
// the metrics registry under "asdb"), and /debug/pprof (net/http/pprof).
// All instrumentation is observation-only — engine results stay
// bit-identical with or without the listener.
//
// With -data-dir set the daemon is durable: every state-changing command
// (STREAM, QUERY, INSERT, CLOSE) is journaled to a write-ahead log under
// DIR/wal and the engine state is checkpointed to DIR/checkpoints every N
// journaled commands. On startup the daemon recovers from the latest valid
// checkpoint plus the WAL suffix; recovery is deterministic, so the
// restarted daemon computes bit-identical results to one that never
// stopped. SIGINT/SIGTERM trigger a graceful shutdown: connections are
// closed, a final checkpoint is written, and the WAL is fsynced.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engineflags"
	"repro/internal/server"
)

// liveNode holds the pieces the signal handler and the rejoin supervisor
// both touch; rejoin swaps in a freshly recovered server.
type liveNode struct {
	mu       sync.Mutex
	srv      *server.Server
	ship     *cluster.ShipServer
	follower *cluster.Follower
	fm       *cluster.FailoverManager
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7433", "listen address")
	// Deprecated: -workers is accepted and ignored (the accuracy kernel runs
	// serially) so that existing command lines keep starting the daemon.
	flag.Int("workers", 0, "deprecated and ignored: the accuracy kernel runs serially")
	maxConns := flag.Int("max-conns", 0, "max concurrent client connections (0 = default 1024, negative = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close connections idle this long (0 = default 5m, negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 0, "graceful-shutdown drain window (0 = default 5s)")
	shed := flag.Bool("shed", false, "enable accuracy-aware load shedding (wider CIs under overload, never dropped tuples)")
	shedTarget := flag.Duration("shed-target-p99", 0, "push-latency p99 the shed controller defends (0 = default 50ms)")
	replAddr := flag.String("repl-addr", "", "WAL-shipping replication listener for followers (requires -data-dir); empty disables")
	follow := flag.String("follow", "", "run as a read-only follower of this primary's -repl-addr; empty disables")
	failover := flag.Bool("failover", false, "follower mode: promote automatically when the primary goes silent")
	failoverSelf := flag.String("failover-self", "", "this replica's client address as listed in -failover-peers (default -addr)")
	failoverPeers := flag.String("failover-peers", "", "comma-separated client addresses of every replica of this shard (including self); must be identical on all replicas")
	failoverSuspect := flag.Duration("failover-suspect", time.Second, "primary silence before the rank-0 successor promotes")
	failoverProbe := flag.Duration("failover-probe", 100*time.Millisecond, "failure-detector probe interval")
	promoteRepl := flag.String("promote-repl-addr", "", "start shipping the WAL on this listener after an automatic promotion (requires -data-dir)")
	autoRejoin := flag.Bool("auto-rejoin", false, "follower mode with -data-dir: on a diverged-suffix verdict, truncate, re-recover and re-follow automatically")
	logger := log.New(os.Stderr, "asdbd: ", log.LstdFlags)
	cfg, err := engineflags.Parse(flag.CommandLine, os.Args[1:], logger.Printf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdbd: %v\n", err)
		os.Exit(2)
	}

	if *replAddr != "" && cfg.DataDir == "" {
		fmt.Fprintln(os.Stderr, "asdbd: -repl-addr requires -data-dir (replication ships the WAL)")
		os.Exit(2)
	}
	if *follow != "" && *replAddr != "" {
		fmt.Fprintln(os.Stderr, "asdbd: -follow and -repl-addr are mutually exclusive")
		os.Exit(2)
	}
	if *failover && *follow == "" {
		fmt.Fprintln(os.Stderr, "asdbd: -failover requires -follow (only a follower can promote)")
		os.Exit(2)
	}
	if *promoteRepl != "" && cfg.DataDir == "" {
		fmt.Fprintln(os.Stderr, "asdbd: -promote-repl-addr requires -data-dir (shipping needs a WAL)")
		os.Exit(2)
	}
	if *autoRejoin && (*follow == "" || cfg.DataDir == "") {
		fmt.Fprintln(os.Stderr, "asdbd: -auto-rejoin requires -follow and -data-dir")
		os.Exit(2)
	}

	eng, err := core.NewEngine(cfg)
	if err != nil {
		log.Fatalf("asdbd: %v", err)
	}
	srv, err := server.NewDurable(eng, logger)
	if err != nil {
		log.Fatalf("asdbd: %v", err)
	}
	srvOpts := server.Options{
		MaxConns:     *maxConns,
		IdleTimeout:  *idleTimeout,
		DrainTimeout: *drainTimeout,
		ReadOnly:     *follow != "",
		Shed: server.ShedConfig{
			Enabled:   *shed,
			TargetP99: *shedTarget,
		},
	}
	srv.SetOptions(srvOpts)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("asdbd: %v", err)
	}
	node := &liveNode{srv: srv}
	// startShip ships srv's WAL to followers on addr: a primary's
	// -repl-addr at start, or -promote-repl-addr once promotion has made
	// this node the shard's new primary.
	startShip := func(srv *server.Server, addr string) error {
		ship, err := cluster.NewShipServer(srv, logger, cluster.ShipOptions{})
		if err != nil {
			return err
		}
		raddr, err := ship.Listen(addr)
		if err != nil {
			return fmt.Errorf("replication listener: %w", err)
		}
		go ship.Serve() // retries a failed Accept; returns once Close stops it
		node.mu.Lock()
		node.ship = ship
		node.mu.Unlock()
		logger.Printf("shipping wal to followers on %s", raddr)
		return nil
	}
	if *replAddr != "" {
		if err := startShip(srv, *replAddr); err != nil {
			log.Fatalf("asdbd: %v", err)
		}
	}
	startFailover := func(srv *server.Server, f *cluster.Follower) *cluster.FailoverManager {
		if !*failover {
			return nil
		}
		self := *failoverSelf
		if self == "" {
			self = *addr
		}
		var peers []string
		for _, p := range strings.Split(*failoverPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		if len(peers) == 0 {
			peers = []string{self}
		}
		fm := cluster.NewFailoverManager(srv, f, logger, cluster.FailoverOptions{
			Self:         self,
			Primary:      *follow,
			Peers:        peers,
			SuspectAfter: *failoverSuspect,
			ProbeEvery:   *failoverProbe,
			OnPromote: func(epoch uint64) {
				if *promoteRepl == "" {
					return
				}
				if err := startShip(srv, *promoteRepl); err != nil {
					logger.Printf("promotion: %v", err)
				}
			},
		})
		fm.Start()
		logger.Printf("failover: watching %s (rank %d of %d, suspect after %v)",
			*follow, fm.Rank(), len(peers), *failoverSuspect)
		return fm
	}
	swapped := make(chan *server.Server, 1)
	if *follow != "" {
		follower := cluster.NewFollower(srv, *follow, logger, cluster.FollowOptions{})
		if w := srv.WAL(); w != nil {
			follower.SetLastApplied(w.LastLSN()) // durable follower resumes where recovery left it
		}
		follower.Start()
		node.follower = follower
		node.fm = startFailover(srv, follower)
		logger.Printf("following primary %s (read-only)", *follow)
		if *autoRejoin {
			go superviseRejoin(node, cfg, logger, *follow, *addr, srvOpts, startFailover, swapped)
		}
	}
	if cfg.DataDir != "" {
		logger.Printf("listening on %s (method=%s level=%g data-dir=%s fsync=%s)",
			bound, cfg.Method, cfg.Level, cfg.DataDir, cfg.FsyncPolicy)
	} else {
		logger.Printf("listening on %s (method=%s level=%g)", bound, cfg.Method, cfg.Level)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	serving := srv
	go func(s *server.Server) { done <- s.Serve() }(serving)
	for {
		select {
		case sig := <-sigc:
			logger.Printf("%s: shutting down", sig)
			node.mu.Lock()
			ship, follower, fm, cur := node.ship, node.follower, node.fm, node.srv
			node.mu.Unlock()
			if fm != nil {
				fm.Stop()
			}
			if ship != nil {
				ship.Close()
			}
			if follower != nil {
				follower.Close()
			}
			if err := cur.Shutdown(); err != nil {
				log.Fatalf("asdbd: shutdown: %v", err)
			}
			<-done // Serve returns nil once Shutdown has stopped its listener.
			return
		case err := <-done:
			if err != nil {
				log.Fatalf("asdbd: %v", err)
			}
			if !*autoRejoin {
				return
			}
			// A nil Serve return with auto-rejoin on means the old server was
			// detached mid-rejoin: wait for the supervisor to hand over the
			// recovered server (nil = rejoin failed; exit).
			next := <-swapped
			if next == nil {
				return
			}
			serving = next
			go func(s *server.Server) { done <- s.Serve() }(serving)
		}
	}
}

// superviseRejoin watches the follower for the diverged-suffix verdict and
// drives the automatic rejoin: truncate the WAL after the last
// epoch-consistent LSN, drop newer checkpoints, re-recover, re-listen, and
// follow again. Other terminal errors are left for the operator.
func superviseRejoin(node *liveNode, cfg core.Config, logger *log.Logger, primaryShip, addr string,
	srvOpts server.Options, startFailover func(*server.Server, *cluster.Follower) *cluster.FailoverManager,
	swapped chan<- *server.Server) {
	for {
		time.Sleep(200 * time.Millisecond)
		node.mu.Lock()
		f, old, fm := node.follower, node.srv, node.fm
		node.mu.Unlock()
		if f == nil {
			return
		}
		err := f.Err()
		if err == nil {
			continue
		}
		var re *cluster.RejoinError
		if !errors.As(err, &re) {
			logger.Printf("rejoin: follower stopped on a non-rejoin error, operator action needed: %v", err)
			return
		}
		logger.Printf("rejoin: %v", re)
		if fm != nil {
			fm.Stop()
		}
		srv, nf, rerr := cluster.Rejoin(old, cfg, re, logger, primaryShip, cluster.FollowOptions{})
		if rerr != nil {
			logger.Printf("rejoin: %v", rerr)
			swapped <- nil
			return
		}
		srvOpts.ReadOnly = true
		srv.SetOptions(srvOpts)
		if _, lerr := srv.Listen(addr); lerr != nil {
			logger.Printf("rejoin: relisten: %v", lerr)
			swapped <- nil
			return
		}
		nf.Start()
		node.mu.Lock()
		node.srv, node.follower = srv, nf
		node.fm = startFailover(srv, nf)
		node.mu.Unlock()
		swapped <- srv
		logger.Printf("rejoin: re-following %s from lsn %d", primaryShip, nf.LastApplied())
	}
}
