// Command tileserve is the overload-safe planning service: the tiered
// optimum-tile-height query of `tileplan -optimum`, served over HTTP with
// admission control, a bounded evaluation cache, and end-to-end
// cancellation. It exists so a cluster scheduler can ask "what tile height
// should this job use?" on the critical path without being able to melt
// the box that answers.
//
//	tileserve -addr :8080
//	curl -s -X POST localhost:8080/v1/plan \
//	     -d '{"version":1,"space":[16,16,1024],"procs":[4,4]}'
//
// The admission pipeline, in order: strict decode (400), token-bucket
// rate limit (429 + Retry-After), concurrency cap with a bounded queue
// (503), then a cache-backed evaluation on the request's own goroutine,
// cancelled with the request's context. Answers are bit-identical to the
// offline CLI. SIGTERM/SIGINT drain gracefully: the listener closes,
// in-flight requests get -drain-timeout to finish, stragglers are
// cancelled. /metrics.json exposes per-tenant
// admitted/shed/cancelled/panics/completed counters and the cache gauges
// (OBSERVABILITY.md documents every field); /debug/pprof is live.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// defaults is the one copy of the service's defaults: the flags start from
// it, and the tests build their servers from defaultConfig too.
var defaults = defaultConfig()

var (
	addrFlag  = flag.String("addr", ":8080", "listen address (\":0\" picks a free port)")
	rateFlag  = flag.Float64("rate", defaults.rate, "admitted requests per second (<=0 = unlimited)")
	burstFlag = flag.Int("burst", defaults.burst, "rate-limit burst allowance")
	concFlag  = flag.Int("concurrency", defaults.concurrency, "concurrent plan evaluations")
	queueFlag = flag.Int("queue", defaults.queueDepth, "admitted requests allowed to wait for a slot")
	qwaitFlag = flag.Duration("queue-wait", defaults.queueWait, "longest a queued request waits")
	rtoFlag   = flag.Duration("request-timeout", defaults.reqTimeout, "per-request evaluation deadline")
	cacheFlag = flag.Int("cache-entries", defaults.cacheBound, "evaluation cache bound (0 = unbounded)")
	drainFlag = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline on SIGTERM")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "tileserve: %v\n", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until SIGTERM/SIGINT, then drains.
// It is the child entry point of the smoke test, so it must announce its
// bound address on stdout and exit 0 on a clean drain.
func run() error {
	cfg := config{
		rate: *rateFlag, burst: *burstFlag,
		concurrency: *concFlag, queueDepth: *queueFlag, queueWait: *qwaitFlag,
		reqTimeout: *rtoFlag, cacheBound: *cacheFlag,
	}
	// The handler goes in before the address is announced: a supervisor may
	// signal the moment it has read the line, and that signal must drain the
	// server, not kill the process by the default action.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	srv := newServer(cfg)
	if err := srv.start(*addrFlag); err != nil {
		return err
	}
	fmt.Printf("tileserve: listening on %s\n", srv.addr)
	<-ctx.Done()
	stop() // restore default signal handling: a second signal kills us

	fmt.Printf("tileserve: draining (up to %v)\n", *drainFlag)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	if err := srv.shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	fmt.Println("tileserve: drained")
	return nil
}
