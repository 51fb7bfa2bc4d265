package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/planapi"
	"repro/internal/sim"
)

// TestMain doubles as the tileserve entry point for the smoke test's child
// process: when TILESERVE_CHILD=1 the binary parses os.Args as tileserve
// flags and runs the real service instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("TILESERVE_CHILD") == "1" {
		if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "tileserve: %v\n", err)
			os.Exit(2)
		}
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "tileserve: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServeSmoke is the end-to-end drill over a real process boundary: a
// tileserve child is bursted past its rate limit (shed 429s alongside
// served 200s, every 200 bit-identical to the offline answer), then
// SIGTERMed and must drain to a clean exit 0.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	cmd := exec.CommandContext(ctx, os.Args[0],
		"-addr", "127.0.0.1:0", "-rate", "5", "-burst", "4",
		"-concurrency", "2", "-queue", "2", "-cache-entries", "16")
	cmd.Env = append(os.Environ(), "TILESERVE_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The child announces its bound port on stdout; later lines (drain
	// messages) are collected for the shutdown assertions.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("child exited before announcing its address: %v", sc.Err())
	}
	first := sc.Text()
	addr := strings.TrimPrefix(first, "tileserve: listening on ")
	if addr == first {
		t.Fatalf("unexpected announcement %q", first)
	}
	var rest strings.Builder
	restDone := make(chan struct{})
	go func() {
		defer close(restDone)
		for sc.Scan() {
			fmt.Fprintln(&rest, sc.Text())
		}
	}()

	// Offline reference for the one grid the burst queries.
	body := `{"version":1,"space":[8,8,256],"procs":[4,4]}`
	q, err := planapi.DecodeRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := q.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	sw.Cache = sim.NewCache()
	want, err := sw.OptimumDetailCtx(context.Background(), sim.Overlapped)
	if err != nil {
		t.Fatal(err)
	}

	// Burst 3x over the bucket: some requests must be served, some shed.
	const n = 12
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(fmt.Sprintf("http://%s/v1/plan", addr),
				"application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			var b strings.Builder
			buf := make([]byte, 4096)
			for {
				m, err := resp.Body.Read(buf)
				b.Write(buf[:m])
				if err != nil {
					break
				}
			}
			resp.Body.Close()
			codes[i], bodies[i] = resp.StatusCode, b.String()
		}(i)
	}
	wg.Wait()

	var ok200, shed int
	for i := 0; i < n; i++ {
		switch codes[i] {
		case http.StatusOK:
			ok200++
			res, err := planapi.DecodeResult(strings.NewReader(bodies[i]))
			if err != nil {
				t.Fatalf("response %d: %v in %q", i, err, bodies[i])
			}
			if res.V != want.V || res.TSeconds != want.T {
				t.Errorf("served V=%d t=%g, offline V=%d t=%g", res.V, res.TSeconds, want.V, want.T)
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			shed++
		case 0: // transport error; the burst races the listener, tolerate
		default:
			t.Errorf("response %d: unexpected status %d: %s", i, codes[i], bodies[i])
		}
	}
	if ok200 == 0 {
		t.Error("burst completed zero requests")
	}
	if shed == 0 {
		t.Error("3x-rate burst was never shed")
	}

	// SIGTERM must drain to a clean exit.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child did not exit cleanly after SIGTERM: %v", err)
	}
	<-restDone
	if !strings.Contains(rest.String(), "drained") {
		t.Errorf("drain messages missing from child output:\n%s", rest.String())
	}
}

// TestServeSigtermAtStart signals the child the instant its address line
// has been read, as a supervisor that treats the announcement as "ready"
// would. The handler must already be installed by then: every child drains
// and exits 0 instead of dying by SIGTERM's default action. The window is
// a few microseconds wide, so the drill is repeated.
func TestServeSigtermAtStart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	for i := 0; i < 10; i++ {
		cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0")
		cmd.Env = append(os.Environ(), "TILESERVE_CHILD=1")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		out := bufio.NewReader(stdout)
		first, err := out.ReadString('\n')
		if err == nil {
			err = cmd.Process.Signal(syscall.SIGTERM)
		}
		if err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child %d: %v (announcement %q)", i, err, first)
		}
		rest, _ := io.ReadAll(out)
		if err := cmd.Wait(); err != nil {
			t.Fatalf("child %d, signalled right after %q: %v", i, strings.TrimSpace(first), err)
		}
		if !strings.Contains(string(rest), "drained") {
			t.Fatalf("child %d exited 0 without draining; output after the address:\n%s", i, rest)
		}
	}
}
