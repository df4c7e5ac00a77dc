// Command lscatter-served is the LScatter deployment-simulation server: a
// long-running JSON API that accepts deployment specs (venue, traffic model,
// tag fleet, impairment ladder, seed), runs them as background jobs on
// the deterministic experiments worker pool, and serves cached, byte-stable
// results from a content-addressed artifact store keyed by (spec-hash, seed).
//
// Usage:
//
//	lscatter-served [-addr 127.0.0.1:8080] [-workers 2] [-job-workers 4]
//	                [-queue 64] [-store 256]
//	                [-artifact-dir DIR] [-disk-max-bytes 268435456]
//
// With -artifact-dir the artifact store becomes durable: finished result
// bodies are written through to checksummed files under DIR and promoted
// back into the in-memory LRU on demand, so a restart — graceful or not —
// keeps the cache warm and previously computed specs are served
// byte-identically with zero recompute. Concurrent identical submissions
// coalesce onto one in-flight run, and GET /v1/runs/{id}/events streams
// per-tag progress rows over SSE.
//
// The bound address is printed on stdout ("listening on http://...") so
// callers that bind an ephemeral port (-addr 127.0.0.1:0) can discover it —
// the make served-check smoke test does exactly that. SIGINT/SIGTERM start a
// graceful shutdown: the listener stops taking requests, queued and running
// jobs drain (up to a timeout), then the process exits 0.
//
// API reference and the determinism/caching contract: docs/SERVING.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lscatter/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		workers     = flag.Int("workers", 2, "concurrent jobs")
		jobWorkers  = flag.Int("job-workers", 4, "per-job tag-evaluation parallelism (never affects results)")
		queue       = flag.Int("queue", 64, "queued-job backlog bound")
		store       = flag.Int("store", 256, "in-memory artifact-store entry bound")
		artifactDir = flag.String("artifact-dir", "", "durable artifact directory (empty = in-memory only)")
		diskMax     = flag.Int64("disk-max-bytes", 256<<20, "on-disk artifact-store byte bound")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	)
	flag.Parse()

	api, err := serve.NewServer(serve.Options{
		Workers:      *workers,
		JobWorkers:   *jobWorkers,
		QueueDepth:   *queue,
		StoreEntries: *store,
		ArtifactDir:  *artifactDir,
		DiskMaxBytes: *diskMax,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lscatter-served: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lscatter-served: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("lscatter-served listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: api.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "lscatter-served: %v\n", err)
		os.Exit(1)
	}

	fmt.Println("lscatter-served: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "lscatter-served: http shutdown: %v\n", err)
	}
	if err := api.Manager().Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "lscatter-served: job drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("lscatter-served: bye")
}
