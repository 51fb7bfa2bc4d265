// Command tilenode runs one rank of the real message-passing stencil
// execution over TCP — the multi-process deployment of the paper's
// experiment. Start one process per rank (possibly on different hosts):
//
//	tilenode -rank 0 -addrs host0:9000,host1:9001,host2:9002,host3:9003 \
//	         -space 8x8x1024 -procs 2x2 -v 64 -mode overlapped
//
// Rank 0 prints the wall-clock comparison line. The result is gathered onto
// rank 0 only when something there reads it: -verify (the check against a
// sequential run) or -grid-out. Rank 0 alone decides and tells the other
// ranks before the run, and then every other rank streams its box to it in
// chunks of at most 1 MiB, so a grid of any size gathers. A timing run
// with -verify=false, no -grid-out and no checkpointing never holds the
// whole grid anywhere: each rank computes into a ring of one tile (at
// least 128 k-slots) per k-row (runner.Time), not into its whole box.
//
// For a single-machine demo, -spawn launches all ranks as goroutines over
// loopback TCP sockets (separate sockets, same code path):
//
//	tilenode -spawn -space 8x8x1024 -procs 2x2 -v 64 -mode overlapped
//
// Opt-in live instrumentation (see OBSERVABILITY.md): -metrics-addr serves
// expvar, net/http/pprof and a /metrics.json snapshot of per-rank traffic,
// blocking-wait histograms and TCP transport counters while the node runs;
// -metrics-snapshot writes the same JSON to a file at teardown:
//
//	tilenode -spawn -space 8x8x1024 -procs 2x2 -v 64 \
//	         -metrics-addr :8080 -metrics-snapshot metrics.json
//
// Either shape (-shape 3d, the paper's Section 5 grid, or -shape 2d, its
// Example 1 strip) runs on the one tile executor and supports failure
// handling: -deadline bounds every blocking wait, -heartbeat starts the
// liveness probe that aborts the world when a peer goes silent, and
// -checkpoint-dir/-checkpoint-every/-restore give deterministic
// checkpoint/restart — a run killed partway can be resumed and produces a
// bit-identical grid:
//
//	tilenode -rank 0 -addrs ... -shape 2d -space2d 512x64 -s1 16 -ranks 4 \
//	         -deadline 10s -heartbeat 1s \
//	         -checkpoint-dir /tmp/ck -checkpoint-every 4 -restore
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stencil"
)

var (
	rankFlag  = flag.Int("rank", -1, "this process's rank (with -addrs)")
	addrsFlag = flag.String("addrs", "", "comma-separated host:port per rank")
	spawnFlag = flag.Bool("spawn", false, "run all ranks in-process over loopback TCP")
	shapeFlag = flag.String("shape", "3d", "3d | 2d (which loop shape to run)")
	spaceFlag = flag.String("space", "8x8x1024", "iteration space IxJxK (with -shape 3d)")
	procsFlag = flag.String("procs", "2x2", "processor grid PIxPJ (with -shape 3d)")
	vFlag     = flag.Int64("v", 64, "tile height along k (with -shape 3d)")
	modeFlag  = flag.String("mode", "overlapped", "blocking | overlapped")
	verify    = flag.Bool("verify", true,
		"rank 0 gathers the grid and verifies it against a sequential run; with -verify=false, no -grid-out and no checkpointing every rank holds a ring of one tile, not its box")

	space2Flag = flag.String("space2d", "64x8", "iteration space I1xI2 (with -shape 2d)")
	s1Flag     = flag.Int64("s1", 8, "tile side along dim 0 (with -shape 2d)")
	ranksFlag  = flag.Int("ranks", 2, "number of ranks (with -shape 2d)")

	deadlineFlag  = flag.Duration("deadline", 0, "bound every blocking wait (0 = forever)")
	heartbeatFlag = flag.Duration("heartbeat", 0, "liveness probe interval (0 = off)")
	ckDirFlag     = flag.String("checkpoint-dir", "", "directory for tile-frontier snapshots")
	ckEveryFlag   = flag.Int64("checkpoint-every", 0, "snapshot every N tiles (0 = off)")
	restoreFlag   = flag.Bool("restore", false, "resume from the newest usable snapshot")
	gridOutFlag   = flag.String("grid-out", "", "rank 0 gathers the grid and writes it (big-endian float64) here")
	tileDelay     = flag.Duration("tile-delay", 0, "slow each tile by this much (chaos testing)")

	metricsAddr = flag.String("metrics-addr", "",
		"serve expvar, net/http/pprof and /metrics.json on this host:port (\":0\" picks a free port)")
	metricsSnap = flag.String("metrics-snapshot", "",
		"write a JSON metrics snapshot to this file at teardown (\"-\" for stdout)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "tilenode: %v\n", err)
		os.Exit(1)
	}
}

// parseDims parses n integers separated by "x".
func parseDims(s string, n int) ([]int64, error) {
	p := strings.Split(s, "x")
	if len(p) != n {
		return nil, fmt.Errorf("want %d numbers separated by x, got %q", n, s)
	}
	vs := make([]int64, n)
	for i := range p {
		var err error
		if vs[i], err = strconv.ParseInt(p[i], 10, 64); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// job is the run the flags describe, reduced to what rankMain and the
// supervisor do with it; the two loop shapes differ only in which runner
// front door the closures call and in the stats line.
type job struct {
	ranks int
	tiles int64 // per rank
	run   func(mp.Comm) (*runner.Local, runner.Stats, error)
	// time is run without the grid, for a rank whose result nobody reads.
	time func(mp.Comm) (runner.Stats, error)
	// gather and verify are collective-on-rank-0 steps after a run.
	gather func(mp.Comm, *runner.Local) (*stencil.Grid, error)
	verify func(*stencil.Grid) (float64, error)
	line   func(runner.Stats) string // rank 0's stats line

	// check and gridOut are what rank 0 reads the gathered grid for
	// (-verify, -grid-out); on any other rank they mean nothing.
	check   bool
	gridOut string
	// checkpointed: this rank snapshots or restores its box, so it keeps
	// the whole box whether or not rank 0 reads the grid.
	checkpointed bool
}

// tilesAlong is the number of tiles of the given height along n points; a
// height the runner's Validate will reject counts as none.
func tilesAlong(n, height int64) int64 {
	if height <= 0 {
		return 0
	}
	return (n + height - 1) / height
}

func job3D(cfg runner.Config) job {
	g := cfg.Grid
	return job{
		ranks:  int(g.PI * g.PJ),
		tiles:  tilesAlong(g.K, cfg.V),
		run:    func(c mp.Comm) (*runner.Local, runner.Stats, error) { return runner.Run(c, cfg) },
		time:   func(c mp.Comm) (runner.Stats, error) { return runner.Time(c, cfg) },
		gather: func(c mp.Comm, l *runner.Local) (*stencil.Grid, error) { return runner.Gather(c, cfg, l) },
		verify: func(grid *stencil.Grid) (float64, error) { return runner.VerifySequential(grid, cfg) },
		line: func(st runner.Stats) string {
			return fmt.Sprintf("mode=%s space=%dx%dx%d procs=%dx%d V=%d elapsed=%v tiles=%d sent=%d msgs (%d bytes)",
				cfg.Mode, g.I, g.J, g.K, g.PI, g.PJ, cfg.V, st.Elapsed.Round(time.Microsecond),
				st.Tiles, st.MsgsSent, st.BytesSent)
		},
	}
}

func job2D(cfg runner.Config2D, ranks int) job {
	return job{
		ranks:  ranks,
		tiles:  tilesAlong(cfg.I1, cfg.S1),
		run:    func(c mp.Comm) (*runner.Local, runner.Stats, error) { return runner.Run2D(c, cfg) },
		time:   func(c mp.Comm) (runner.Stats, error) { return runner.Time2D(c, cfg) },
		gather: func(c mp.Comm, l *runner.Local) (*stencil.Grid, error) { return runner.Gather2D(c, cfg, l) },
		verify: func(grid *stencil.Grid) (float64, error) { return runner.VerifySequential2D(grid, cfg) },
		line: func(st runner.Stats) string {
			return fmt.Sprintf("mode=%s space2d=%dx%d s1=%d elapsed=%v tiles=%d sent=%d msgs (%d bytes) checkpoints=%d",
				cfg.Mode, cfg.I1, cfg.I2, cfg.S1, st.Elapsed.Round(time.Microsecond),
				st.Tiles, st.MsgsSent, st.BytesSent, st.Checkpoints)
		},
	}
}

// buildJob turns the flags into the job they describe, checked by the
// runner against the job's own rank count before any socket or process
// exists.
func buildJob() (job, error) {
	var mode runner.Mode
	switch *modeFlag {
	case "blocking":
		mode = runner.Blocking
	case "overlapped":
		mode = runner.Overlapped
	default:
		return job{}, fmt.Errorf("unknown mode %q", *modeFlag)
	}
	ck := runner.CheckpointConfig{Dir: *ckDirFlag, Every: *ckEveryFlag, Restore: *restoreFlag}
	var (
		j        job
		validate func(ranks int) error
	)
	switch *shapeFlag {
	case "3d":
		sp, err := parseDims(*spaceFlag, 3)
		if err != nil {
			return job{}, fmt.Errorf("-space: %w", err)
		}
		pr, err := parseDims(*procsFlag, 2)
		if err != nil {
			return job{}, fmt.Errorf("-procs: %w", err)
		}
		cfg := runner.Config{
			Grid: model.Grid3D{I: sp[0], J: sp[1], K: sp[2], PI: pr[0], PJ: pr[1]}, V: *vFlag,
			Kernel: withTileDelay(stencil.Sqrt3D{}), Mode: mode, Checkpoint: ck,
		}
		j, validate = job3D(cfg), cfg.Validate
	case "2d":
		sp, err := parseDims(*space2Flag, 2)
		if err != nil {
			return job{}, fmt.Errorf("-space2d: %w", err)
		}
		cfg := runner.Config2D{
			I1: sp[0], I2: sp[1], S1: *s1Flag,
			Kernel: withTileDelay(stencil.Sum2D{}), Mode: mode, Checkpoint: ck,
		}
		j, validate = job2D(cfg, *ranksFlag), cfg.Validate
	default:
		return job{}, fmt.Errorf("unknown shape %q", *shapeFlag)
	}
	if err := validate(j.ranks); err != nil {
		return job{}, err
	}
	j.check, j.gridOut, j.checkpointed = *verify, *gridOutFlag, ck != (runner.CheckpointConfig{})
	return j, nil
}

// blockKernel is a kernel with the runner's block fast path.
type blockKernel interface {
	stencil.Kernel
	stencil.Block3D
}

// slowKernel stretches a run out for chaos testing: each tile sleeps once
// before the wrapped kernel sweeps it, so every tile costs at least delay
// and a SIGKILL can be aimed mid-run instead of racing a sub-millisecond
// finish.
type slowKernel struct {
	blockKernel
	delay time.Duration
}

// withTileDelay wraps k when -tile-delay is set.
func withTileDelay(k blockKernel) stencil.Kernel {
	if *tileDelay <= 0 {
		return k
	}
	return slowKernel{k, *tileDelay}
}

func (k slowKernel) SweepBlock(a []float64, base, ni, nj, nk, si, sj int) {
	time.Sleep(k.delay)
	k.blockKernel.SweepBlock(a, base, ni, nj, nk, si, sj)
}

// writeGrid dumps a gathered grid as big-endian float64s — the format the
// chaos test byte-compares across a killed-then-restored run.
func writeGrid(path string, g *stencil.Grid) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	var enc [4 << 10]byte
	for data := g.Data; len(data) > 0; {
		n := min(len(data), len(enc)/8)
		for i, v := range data[:n] {
			binary.BigEndian.PutUint64(enc[8*i:], math.Float64bits(v))
		}
		w.Write(enc[:8*n]) // a failure sticks; Flush reports it
		data = data[n:]
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rankMain is one rank's whole life: learn whether rank 0 reads the grid,
// run (timed only, when nothing needs the box), record the checkpoint
// counters, gather if rank 0 reads the grid, and on rank 0 print the stats
// line, verify and write the grid.
func rankMain(c mp.Comm, j job, obsv *observer) error {
	// Only rank 0's flags say whether the grid has a reader (-verify means
	// something there alone, and the supervisor hands -grid-out to rank 0
	// only), so rank 0 decides and broadcasts one byte, before the run so
	// that a rank with no reader and no snapshots to take can compute into
	// a ring instead of its whole box. A rank deciding from its own flags
	// could wait for a credit that never comes, or never send the chunks
	// rank 0 waits for. Both front doors exchange the same messages, so
	// ranks may differ in which they take.
	read := []byte{0}
	if c.Rank() == 0 && (j.check || j.gridOut != "") {
		read[0] = 1
	}
	if err := mp.Bcast(c, 0, read); err != nil {
		return err
	}
	var (
		local *runner.Local
		stats runner.Stats
		err   error
	)
	if read[0] == 0 && !j.checkpointed {
		stats, err = j.time(c)
	} else {
		local, stats, err = j.run(c)
	}
	if err != nil {
		return err
	}
	if m := obsv.metrics(c.Rank()); m != nil {
		m.RecordCheckpoints(stats.Checkpoints, stats.CheckpointBytes)
	}
	var grid *stencil.Grid
	if read[0] == 1 {
		if grid, err = j.gather(c, local); err != nil {
			return err
		}
	}
	if c.Rank() != 0 {
		return nil
	}
	fmt.Println(j.line(stats))
	if j.check {
		diff, err := j.verify(grid)
		if err != nil {
			return err
		}
		fmt.Printf("verification: max |parallel - sequential| = %g\n", diff)
		if diff != 0 {
			return fmt.Errorf("verification failed")
		}
	}
	if j.gridOut != "" {
		return writeGrid(j.gridOut, grid)
	}
	return nil
}

// spawnRun launches n ranks in-process, building each rank's communicator
// with connect. The first rank to fail triggers a teardown of the others:
// the cancel channel handed to connect is closed (aborting mesh-up still
// in progress) and every live communicator is closed (unblocking ranks
// stuck in Recv or Barrier). The launcher then reports the first failure
// as a diagnostic instead of hanging; errors the teardown itself provokes
// in surviving ranks are suppressed.
func spawnRun(n int,
	connect func(rank int, cancel <-chan struct{}) (mp.Comm, error),
	rankFn func(c mp.Comm) error) error {
	type rankErr struct {
		rank int
		err  error
	}
	cancel := make(chan struct{})
	var (
		cancelOnce sync.Once
		mu         sync.Mutex
		comms      = make([]mp.Comm, n)
	)
	teardown := func() {
		cancelOnce.Do(func() { close(cancel) })
		mu.Lock()
		defer mu.Unlock()
		for _, c := range comms {
			if c != nil {
				c.Close()
			}
		}
	}

	errCh := make(chan rankErr, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := connect(rank, cancel)
			if err != nil {
				errCh <- rankErr{rank, err}
				return
			}
			mu.Lock()
			select {
			case <-cancel: // teardown already ran; don't leak this comm
				mu.Unlock()
				c.Close()
				return
			default:
				comms[rank] = c
			}
			mu.Unlock()
			if err := rankFn(c); err != nil {
				errCh <- rankErr{rank, err}
			}
		}(r)
	}
	go func() {
		wg.Wait()
		close(errCh)
	}()

	var first *rankErr
	for re := range errCh {
		if first == nil {
			re := re
			first = &re
			teardown()
		}
		// Later errors are almost always fallout of the teardown
		// (closed comms); only the first is diagnostic.
	}
	teardown() // release resources on the success path too
	if first != nil {
		return fmt.Errorf("rank %d failed: %w (remaining ranks torn down)", first.rank, first.err)
	}
	return nil
}

// observer wires the opt-in obs layer into the node: one obs.CommMetrics
// per local rank, aggregated in a Registry that is served live at
// -metrics-addr and dumped as JSON to -metrics-snapshot at teardown. A nil
// *observer is valid and turns every method into a no-op, so the plain
// uninstrumented path stays untouched.
type observer struct {
	reg  *obs.Registry
	srv  *obs.MetricsServer // nil without -metrics-addr
	snap string

	mu sync.Mutex
	ms map[int]*obs.CommMetrics // per-rank collectors, by rank
}

// newObserver returns nil (no instrumentation) when both flags are unset.
func newObserver(addr, snap string) (*observer, error) {
	if addr == "" && snap == "" {
		return nil, nil
	}
	o := &observer{reg: obs.NewRegistry(), snap: snap, ms: make(map[int]*obs.CommMetrics)}
	if addr != "" {
		srv, err := o.reg.Start(addr)
		if err != nil {
			return nil, err
		}
		o.srv = srv
		fmt.Fprintf(os.Stderr, "tilenode: metrics on http://%s/debug/vars\n", srv.Addr)
	}
	return o, nil
}

// instrument registers a collector for rank and returns the TCP options
// (base plus the transport event hook) and the Comm wrapper to apply after
// connecting. base is taken by value: the deadline-bearing literal in
// baseTCPOptions stays the only construction site for transport options.
func (o *observer) instrument(rank, size int, base mp.TCPOptions) (*mp.TCPOptions, func(mp.Comm) mp.Comm) {
	if o == nil {
		return &base, func(c mp.Comm) mp.Comm { return c }
	}
	m := obs.NewCommMetrics(rank, size)
	o.reg.Register(m)
	o.mu.Lock()
	o.ms[rank] = m
	o.mu.Unlock()
	base.OnEvent = m.TCPEvent
	return &base, func(c mp.Comm) mp.Comm { return obs.InstrumentComm(c, m) }
}

// metrics returns rank's collector, or nil when instrumentation is off.
func (o *observer) metrics(rank int) *obs.CommMetrics {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ms[rank]
}

// finish writes the teardown snapshot (if requested) and stops the metrics
// server. Call after all ranks have quiesced.
func (o *observer) finish() error {
	if o == nil {
		return nil
	}
	var err error
	if o.snap != "" {
		w := os.Stdout
		if o.snap != "-" {
			f, ferr := os.Create(o.snap)
			if ferr != nil {
				err = ferr
			} else {
				defer f.Close()
				w = f
			}
		}
		if err == nil {
			err = o.reg.WriteJSON(w)
		}
	}
	if o.srv != nil {
		// Drain rather than cut off: a scrape in flight at teardown
		// completes, and the deadline bounds a stuck client.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		o.srv.Shutdown(ctx)
	}
	return err
}

func run() error {
	if *superviseFlag {
		return superviseMain()
	}
	j, err := buildJob()
	if err != nil {
		return err
	}
	obsv, err := newObserver(*metricsAddr, *metricsSnap)
	if err != nil {
		return err
	}
	err = runRanks(j.ranks, obsv, func(c mp.Comm) error { return rankMain(c, j, obsv) })
	if ferr := obsv.finish(); err == nil {
		err = ferr
	}
	return err
}

// baseTCPOptions carries the failure-handling flags into every transport.
func baseTCPOptions(cancel <-chan struct{}) mp.TCPOptions {
	return mp.TCPOptions{
		Cancel:    cancel,
		Deadline:  *deadlineFlag,
		Heartbeat: *heartbeatFlag,
		Epoch:     uint32(*epochFlag),
	}
}

func runRanks(n int, obsv *observer, rankFn func(c mp.Comm) error) error {
	if *spawnFlag {
		addrs, err := loopbackAddrs(n)
		if err != nil {
			return err
		}
		return spawnRun(n, func(rank int, cancel <-chan struct{}) (mp.Comm, error) {
			opts, wrap := obsv.instrument(rank, n, baseTCPOptions(cancel))
			c, err := mp.ConnectTCP(rank, n, addrs, opts)
			if err != nil {
				return nil, err
			}
			return wrap(c), nil
		}, rankFn)
	}
	if *rankFlag < 0 || *addrsFlag == "" {
		return fmt.Errorf("need -spawn, or both -rank and -addrs")
	}
	addrs := strings.Split(*addrsFlag, ",")
	opts, wrap := obsv.instrument(*rankFlag, n, baseTCPOptions(nil))
	c, err := mp.ConnectTCP(*rankFlag, n, addrs, opts)
	if err != nil {
		return err
	}
	c = wrap(c)
	defer c.Close()
	return rankFn(c)
}

// loopbackAddrs reserves n free loopback ports.
func loopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}
