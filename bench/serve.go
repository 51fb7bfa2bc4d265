package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/planapi"
)

const (
	serverStartDeadline = 20 * time.Second
	serverDrainDeadline = 20 * time.Second
)

// server is one running tileserve process.
type server struct {
	cmd     *child
	addr    string
	started time.Time
	startS  float64 // process start → first /healthz 200
	stderr  bytes.Buffer
}

// startServer launches `tileserve -addr 127.0.0.1:0 -rate 0` (every other
// flag at its default) and waits until it answers /healthz.
func (e *env) startServer() (*server, error) {
	s := &server{}
	cmd := e.command("tileserve", "-addr", "127.0.0.1:0", "-rate", "0")
	cmd.Stderr = &s.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if s.cmd, err = e.start(cmd); err != nil {
		return nil, err
	}
	fail := func(err error) (*server, error) {
		s.cmd.killGroup()
		_ = e.wait(s.cmd, serverDrainDeadline) // already reporting err
		return nil, fmt.Errorf("tileserve start: %w: %s", err, bytes.TrimSpace(s.stderr.Bytes()))
	}
	// The first stdout line announces the bound address; a watchdog kills
	// a server that never prints it, which unblocks the read.
	watchdog := time.AfterFunc(serverStartDeadline, s.cmd.killGroup)
	sc := bufio.NewScanner(stdout)
	ok := sc.Scan()
	watchdog.Stop()
	if !ok {
		return fail(fmt.Errorf("no address announcement"))
	}
	s.addr = strings.TrimPrefix(sc.Text(), "tileserve: listening on ")
	if s.addr == sc.Text() {
		return fail(fmt.Errorf("unexpected announcement %q", sc.Text()))
	}
	go io.Copy(io.Discard, stdout) // drain messages; ends when the process closes stdout

	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + s.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > serverStartDeadline {
			return fail(fmt.Errorf("no /healthz 200 within %v", serverStartDeadline))
		}
		time.Sleep(time.Millisecond)
	}
	client.CloseIdleConnections()
	s.started, s.startS = start, time.Since(start).Seconds()
	return s, nil
}

func (s *server) planURL() string { return "http://" + s.addr + "/v1/plan" }

// serverCounters is what /metrics.json says after a workload.
type serverCounters struct {
	Service struct {
		Totals struct {
			Admitted  uint64 `json:"admitted"`
			Shed      uint64 `json:"shed"`
			Coalesced uint64 `json:"coalesced"`
			Cancelled uint64 `json:"cancelled"`
		} `json:"totals"`
		Cache map[string]uint64 `json:"cache"`
	} `json:"service"`
}

func (s *server) counters() (serverCounters, error) {
	var c serverCounters
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + s.addr + "/metrics.json")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("/metrics.json: %s", resp.Status)
	}
	return c, json.NewDecoder(resp.Body).Decode(&c)
}

// minServerUptime is how long a server runs before it is told to stop:
// tileserve installs its signal handler just after announcing its address,
// and a SIGTERM that wins that race kills it instead of draining it.
const minServerUptime = 100 * time.Millisecond

// stopServer sends SIGTERM and requires the clean-drain exit 0.
func (e *env) stopServer(s *server) (rssMB float64, err error) {
	time.Sleep(time.Until(s.started.Add(minServerUptime)))
	rssMB, _ = vmHWM(s.cmd.Process.Pid)
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.killGroup()
	}
	if err := e.wait(s.cmd, serverDrainDeadline); err != nil {
		return rssMB, fmt.Errorf("tileserve did not drain to exit 0: %w: %s",
			err, bytes.TrimSpace(s.stderr.Bytes()))
	}
	return rssMB, nil
}

// sample is one request as the client saw it.
type sample struct {
	req     int           // index into the request list
	at      time.Duration // send time, from the start of the load
	latency time.Duration // send → body fully read
	status  int
	body    []byte
	err     error
}

// loadResult is a finished closed-loop run.
type loadResult struct {
	samples []sample
	wall    time.Duration // first send → last reply
}

// poster is the client's connection to the service: it posts one plan
// request and returns the whole reply. Tests pass a fake.
type poster interface {
	post(body []byte) (status int, reply []byte, err error)
	close()
}

// runLoad plays order (indices into bodies) over one connection, one
// request at a time: a closed loop, because a planner's callers (tileplan,
// a scheduler) wait for the reply before they ask again. There is one
// client and no more, on every serve workload: with two, a request's
// latency depended on what the other connection's request was doing to the
// two cores, and neither latency nor throughput repeated from run to run
// (README.md, host-noise finding).
func runLoad(dial func() (poster, error), bodies [][]byte, order []int) loadResult {
	res := loadResult{samples: make([]sample, 0, len(order))}
	conn, err := dial()
	if err != nil {
		for _, i := range order {
			res.samples = append(res.samples, sample{req: i, err: err})
		}
		return res
	}
	defer conn.close()
	start := time.Now()
	for _, i := range order {
		s := sample{req: i}
		t0 := time.Now()
		s.status, s.body, s.err = conn.post(bodies[i])
		s.at, s.latency = t0.Sub(start), time.Since(t0)
		res.samples = append(res.samples, s)
	}
	res.wall = time.Since(start)
	return res
}

// requestDeadline bounds one request; the slowest seen while sizing (an
// exact-tier fallback on the cold list) took 0.7 s.
const requestDeadline = 60 * time.Second

// planConn is the real poster: a keep-alive HTTP/1.1 connection spoken
// from the calling goroutine. net/http's Transport would hand every request
// to a writer goroutine and every reply back from a reader goroutine — four
// scheduler hand-offs per request inside the harness, as many as the
// service itself needs, on a workload whose requests take 100 µs. The
// reply is still parsed by net/http.
type planConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	head []byte // request line and headers up to the Content-Length value
	out  []byte
}

func dialPlan(addr string) func() (poster, error) {
	return func() (poster, error) {
		c := &planConn{addr: addr}
		c.head = []byte("POST /v1/plan HTTP/1.1\r\nHost: " + addr +
			"\r\nContent-Type: application/json\r\nContent-Length: ")
		return c, c.redial()
	}
}

func (c *planConn) redial() error {
	c.close()
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.conn, c.br = conn, bufio.NewReader(conn)
	return nil
}

func (c *planConn) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *planConn) post(body []byte) (int, []byte, error) {
	if c.conn == nil { // the last exchange ended the connection
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	c.out = append(c.out[:0], c.head...)
	c.out = strconv.AppendInt(c.out, int64(len(body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, body...)
	c.conn.SetDeadline(time.Now().Add(requestDeadline))
	if _, err := c.conn.Write(c.out); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, reply, err
}

// judge decides which samples count as correct 200s. want holds the
// reference answers by planapi key; a request without one (see
// sampleStride) is checked for structural validity only. It returns the
// number of failed samples and the first few reasons.
func judge(reqs []planapi.PlanRequest, samples []sample, want map[string]planAnswer) (failed int, reasons []string) {
	fail := func(s sample, format string, args ...any) {
		failed++
		if len(reasons) < 5 {
			reasons = append(reasons, fmt.Sprintf("%s: %s", reqs[s.req].Key(), fmt.Sprintf(format, args...)))
		}
	}
	// Answers repeat byte for byte on the hot workload; decode each
	// distinct body once.
	verdicts := make(map[string]error)
	for _, s := range samples {
		if s.err != nil {
			fail(s, "%v", s.err)
			continue
		}
		if s.status != http.StatusOK {
			fail(s, "status %d: %s", s.status, bytes.TrimSpace(s.body))
			continue
		}
		q := reqs[s.req]
		memo := q.Key() + "\x00" + string(s.body)
		verdict, seen := verdicts[memo]
		if !seen {
			verdict = judgeBody(q, s.body, want)
			verdicts[memo] = verdict
		}
		if verdict != nil {
			fail(s, "%v", verdict)
		}
	}
	return failed, reasons
}

func judgeBody(q planapi.PlanRequest, body []byte, want map[string]planAnswer) error {
	res, err := planapi.DecodeResult(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if err := structurallyValid(q, res); err != nil {
		return err
	}
	if ref, ok := want[q.Key()]; ok && !answerOf(res).equal(ref) {
		return fmt.Errorf("answer %+v differs from the reference %+v", answerOf(res), ref)
	}
	return nil
}

func encodeRequests(reqs []planapi.PlanRequest) ([][]byte, error) {
	bodies := make([][]byte, len(reqs))
	for i, q := range reqs {
		b, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}
