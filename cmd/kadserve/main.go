// Command kadserve is the long-running resilience-query service: a
// Kademlia resilience engine kept warm behind an HTTP API. Where the
// batch CLI (kadsweep) pays a full simulation per run, kadserve keeps
// every finished run's analysis state — the connectivity engine bound to
// the final topology, with the answers it memoized but without its
// solvers — resident in a shared LRU arena, so repeated or overlapping
// queries answer from memory without a single re-bind.
//
// Queries are adaptively replicated: replication stops as soon as the
// Student-t 95% confidence interval decides the query's threshold (or
// reaches its precision target), and per-replication progress streams to
// the client as NDJSON (or SSE under Accept: text/event-stream) while
// the query runs.
//
// A query declares its run either as flat scenario/attack blocks or as an
// embedded scenario spec; the flat blocks are shorthand for a one-run
// spec (a zero field is an unset one), so both spellings are checked and
// defaulted by the one resolver, scenario.ResolveRun, and share an arena
// identity. Parked engines need no upkeep: an engine holds no store that
// grows with churn (the runner's only maintenance is the slot-table
// compaction of connectivity.DefaultGovernance(), which is not a flag),
// and the arena only ever re-analyses it. A query body over
// 1 MiB is refused with 413 before it is resolved.
//
// Endpoints:
//
//	POST /v1/query    run one resilience query (see internal/serve.QuerySpec)
//	GET  /v1/arena    arena occupancy, per-entry estimated sizes
//	GET  /v1/healthz  liveness
//
// Flags:
//
//	-addr a             listen address (default :8700)
//	-arena-mb n         arena memory budget in MiB (default 256)
//	-jobs j             concurrent replications per query; 0 = GOMAXPROCS
//	-max-concurrent-sims n
//	                    total concurrently executing replications across
//	                    all queries, FIFO admission; 0 = GOMAXPROCS,
//	                    negative = unlimited
//	-default-deadline d wall-clock budget for queries without their own
//	                    deadline_ms; 0 = none (default)
//	-drain-timeout d    shutdown grace for in-flight queries (default 30s)
//	-quiet              suppress log lines
//
// A client that disconnects (or a query that outlives its deadline)
// cancels its simulations inside the event kernel within one event
// batch and releases its admission slots; completed replications stay
// warm in the arena either way.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains:
// in-flight queries stream to completion (up to -drain-timeout), then
// the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kadre/internal/serve"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, nil, sigs); err != nil {
		fmt.Fprintln(os.Stderr, "kadserve:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until a shutdown signal drains it.
// ready (tests) receives the bound listen address once accepting.
func run(args []string, stdout io.Writer, ready func(addr string), shutdown <-chan os.Signal) error {
	fs := flag.NewFlagSet("kadserve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8700", "listen address")
		arenaMB      = fs.Int64("arena-mb", 256, "arena memory budget (MiB)")
		jobs         = fs.Int("jobs", 0, "concurrent replications per query (0 = GOMAXPROCS)")
		maxSims      = fs.Int("max-concurrent-sims", 0, "total concurrent replications across all queries (0 = GOMAXPROCS, negative = unlimited)")
		defDeadline  = fs.Duration("default-deadline", 0, "deadline for queries without deadline_ms (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight queries")
		quiet        = fs.Bool("quiet", false, "suppress log lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logf := func(format string, a ...any) {
		if !*quiet {
			fmt.Fprintf(stdout, "kadserve: "+format+"\n", a...)
		}
	}

	srv := serve.NewServer(serve.Options{
		Arena:             serve.NewArena(serve.ArenaOptions{BudgetBytes: *arenaMB << 20}),
		Jobs:              *jobs,
		MaxConcurrentSims: *maxSims,
		DefaultDeadline:   *defDeadline,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logf("listening on %s", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	httpSrv := &http.Server{Handler: srv.Handler()}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case sig := <-shutdown:
		logf("draining (%v)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		err := httpSrv.Shutdown(ctx)
		if serveRes := <-serveErr; serveRes != nil && !errors.Is(serveRes, http.ErrServerClosed) {
			return serveRes
		}
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		logf("drained")
		return nil
	}
}
