package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the harness writes lives, relative to the
// module root it is run from: the two program binaries and one scratch
// directory per harness process. Nothing is written outside it.
const buildDir = ".bench_build"

// env is one harness process's hold on the outside world: the built
// binaries, its scratch directory and every child it has started.
type env struct {
	binDir  string
	scratch string
	buildS  float64
	ladder  map[string]float64 // the traced pass's ladder, climbed once per process

	mu     sync.Mutex
	live   map[*child]struct{}
	closed bool // no child may be started any more
}

// child is a started process. A goroutine of its own reaps it the moment
// it dies, whoever is or is not waiting for it, so that neither a deadline
// nor an interrupted harness leaves a zombie behind.
type child struct {
	*exec.Cmd
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result; read after exited
}

// newEnv checks the working directory is the module root, builds tilenode
// and tileserve once, and creates the scratch directory.
func newEnv(ctx context.Context) (*env, error) {
	mod, err := os.ReadFile("go.mod")
	if err != nil || !bytes.HasPrefix(mod, []byte("module repro")) {
		return nil, errors.New("run from the root of the repro module (go.mod not found here)")
	}
	e := &env{binDir: filepath.Join(buildDir, "bin"), live: make(map[*child]struct{})}
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", e.binDir+string(os.PathSeparator),
		"./cmd/tilenode", "./cmd/tileserve")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %w\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	if e.scratch, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// command prepares a child in its own process group, so that a deadline or
// a harness failure can take down the child and anything it started.
func (e *env) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(e.bin(name), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	return cmd
}

func (e *env) start(cmd *exec.Cmd) (*child, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, errors.New("harness is shutting down")
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{Cmd: cmd, exited: make(chan struct{})}
	e.live[c] = struct{}{}
	go func() {
		c.err = cmd.Wait()
		e.mu.Lock()
		delete(e.live, c)
		e.mu.Unlock()
		close(c.exited)
	}()
	return c, nil
}

// wait blocks until c has exited, killing its whole group if it outlives
// the deadline.
func (e *env) wait(c *child, deadline time.Duration) error {
	select {
	case <-c.exited:
		return c.err
	case <-time.After(deadline):
		c.killGroup()
		<-c.exited
		return fmt.Errorf("%s: killed after the %v deadline", filepath.Base(c.Path), deadline)
	}
}

func (c *child) killGroup() {
	_ = syscall.Kill(-c.Process.Pid, syscall.SIGKILL) // the group may already be gone
}

// close kills whatever is still running, waits for it to be reaped,
// removes the scratch directory and reports anything that was left.
func (e *env) close() error {
	e.mu.Lock()
	e.closed = true
	var leaked []string
	var waitFor []*child
	for c := range e.live {
		leaked = append(leaked, fmt.Sprintf("%s[%d]", filepath.Base(c.Path), c.Process.Pid))
		waitFor = append(waitFor, c)
		c.killGroup()
	}
	e.mu.Unlock()
	for _, c := range waitFor {
		<-c.exited
	}
	var err error
	if len(leaked) > 0 {
		err = fmt.Errorf("child processes still alive at exit (killed): %v", leaked)
	}
	if rmErr := os.RemoveAll(e.scratch); rmErr != nil && err == nil {
		err = rmErr
	}
	return err
}

// vmHWM reads a live process's high-water resident set from
// /proc/<pid>/status, in MB. The child's rusage would be simpler but is
// not its own: on exec the kernel folds the forking process's high-water
// mark into it, so a child of a harness holding a few hundred MB of spans
// would report the harness.
func vmHWM(pid int) (float64, bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err == nil {
				return kb / 1024, true
			}
		}
	}
	return 0, false
}

// watchHWM samples the processes' high-water marks every few
// milliseconds until stop is closed and returns the sum of the last value
// seen for each — "just before exit" as well as an outside observer can
// know it, and a lower bound on the truth.
func watchHWM(cmds []*child, stop <-chan struct{}) float64 {
	last := make([]float64, len(cmds))
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		for i, cmd := range cmds {
			if mb, ok := vmHWM(cmd.Process.Pid); ok {
				last[i] = mb
			}
		}
		select {
		case <-stop:
			var sum float64
			for _, mb := range last {
				sum += mb
			}
			return sum
		case <-tick.C:
		}
	}
}

// loopbackAddrs reserves n free loopback ports by binding and releasing
// them; the kernel does not hand a just-released ephemeral port to the
// next bind, so the window for a collision is the other processes on the
// host, not the harness itself.
func loopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// spinIters sizes the calibration spin to about 30 ms on the sizing host.
const spinIters = 12_000_000

var spinSink float64

// spin is a fixed CPU-only loop: the same instructions every time, no
// memory traffic, no system calls. How long it takes says how much of a
// core the harness was getting at that moment, independent of the
// program under test.
func spin() time.Duration {
	start := time.Now()
	x := 1.0
	for i := 0; i < spinIters; i++ {
		x = x*1.0000001 + 0.0000001
	}
	spinSink = x
	return time.Since(start)
}
