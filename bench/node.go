package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// nodeGeom is one tilenode problem: the iteration space, the processor
// grid and the tile height. Every node workload runs it on PI·PJ = 2
// rank processes, one per core of the sizing host.
type nodeGeom struct {
	I, J, K, PI, PJ, V int64
}

var (
	// coarseGeom is the compute-bound right side of T(V): 16 tiles and 16
	// messages of 64 KiB per rank across the west/east faces.
	coarseGeom = nodeGeom{I: 64, J: 64, K: 2048, PI: 2, PJ: 1, V: 128}
	// fineGeom is the start-up-bound left edge: 16 384 eight-point tiles
	// and as many 64-byte messages across the north/south faces.
	fineGeom = nodeGeom{I: 8, J: 2, K: 16384, PI: 1, PJ: 2, V: 1}
)

func (g nodeGeom) ranks() int    { return int(g.PI * g.PJ) }
func (g nodeGeom) points() int64 { return g.I * g.J * g.K }
func (g nodeGeom) tiles() int64  { return (g.K + g.V - 1) / g.V }

// rank0Counts is what rank 0 — grid position (0,0), the rank whose stats
// line is printed — must report: it computes every k-tile once and sends
// one east face (TJ×v values) per tile if PI > 1 and one south face (TI×v
// values) per tile if PJ > 1.
func (g nodeGeom) rank0Counts() (tiles, msgs, bytes int64) {
	tiles = g.tiles()
	ti, tj := g.I/g.PI, g.J/g.PJ
	if g.PI > 1 {
		msgs += tiles
		bytes += 8 * tj * g.K
	}
	if g.PJ > 1 {
		msgs += tiles
		bytes += 8 * ti * g.K
	}
	return tiles, msgs, bytes
}

func (g nodeGeom) args(rank int, addrs []string, mode string, verify bool) []string {
	return []string{
		"-rank", strconv.Itoa(rank), "-addrs", strings.Join(addrs, ","),
		"-shape", "3d",
		"-space", fmt.Sprintf("%dx%dx%d", g.I, g.J, g.K),
		"-procs", fmt.Sprintf("%dx%d", g.PI, g.PJ),
		"-v", strconv.FormatInt(g.V, 10),
		"-mode", mode,
		"-verify=" + strconv.FormatBool(verify),
	}
}

// nodeOutput is rank 0's report, parsed.
type nodeOutput struct {
	mode               string
	elapsed            time.Duration
	tiles, msgs, bytes int64
	verified           bool    // a verification line was printed
	maxDiff            float64 // max |parallel − sequential|
}

var (
	statsRE  = regexp.MustCompile(`(?m)^mode=(\w+) space=\S+ procs=\S+ V=\d+ elapsed=(\S+) tiles=(\d+) sent=(\d+) msgs \((\d+) bytes\)$`)
	verifyRE = regexp.MustCompile(`(?m)^verification: max \|parallel - sequential\| = (\S+)$`)
)

func parseNodeOutput(out []byte) (nodeOutput, error) {
	m := statsRE.FindSubmatch(out)
	if m == nil {
		return nodeOutput{}, fmt.Errorf("no stats line in tilenode output %q", bytes.TrimSpace(out))
	}
	var o nodeOutput
	var err error
	o.mode = string(m[1])
	if o.elapsed, err = time.ParseDuration(string(m[2])); err != nil {
		return nodeOutput{}, fmt.Errorf("elapsed: %w", err)
	}
	for i, dst := range []*int64{&o.tiles, &o.msgs, &o.bytes} {
		if *dst, err = strconv.ParseInt(string(m[3+i]), 10, 64); err != nil {
			return nodeOutput{}, err
		}
	}
	if v := verifyRE.FindSubmatch(out); v != nil {
		o.verified = true
		if o.maxDiff, err = strconv.ParseFloat(string(v[1]), 64); err != nil {
			return nodeOutput{}, fmt.Errorf("verification line: %w", err)
		}
	}
	return o, nil
}

// check judges one rep's report against the geometry.
func (o nodeOutput) check(g nodeGeom, mode string, verify bool) error {
	tiles, msgs, bytes := g.rank0Counts()
	switch {
	case o.mode != mode:
		return fmt.Errorf("ran mode %q, asked %q", o.mode, mode)
	case o.tiles != tiles || o.msgs != msgs || o.bytes != bytes:
		return fmt.Errorf("tiles=%d sent=%d bytes=%d, geometry says %d/%d/%d",
			o.tiles, o.msgs, o.bytes, tiles, msgs, bytes)
	case o.elapsed <= 0:
		return fmt.Errorf("elapsed=%v", o.elapsed)
	case verify && !o.verified:
		return fmt.Errorf("checked rep printed no verification line")
	case verify && o.maxDiff != 0:
		return fmt.Errorf("max |parallel - sequential| = %g", o.maxDiff)
	}
	return nil
}

// repDeadline bounds one process pair; the slowest rep measured while
// sizing (a checked coarse rep under interference) took under 6 s.
const repDeadline = 60 * time.Second

// nodeRep is one job: both ranks as OS processes over loopback TCP.
type nodeRep struct {
	mode    string
	elapsed float64 // s, rank 0's barrier-to-barrier time
	wall    float64 // s, first spawn → both exits
	rssMB   float64 // summed over the ranks
	err     error
}

func (e *env) runNodeRep(g nodeGeom, mode string, verify bool) nodeRep {
	rep := nodeRep{mode: mode}
	addrs, err := loopbackAddrs(g.ranks())
	if err != nil {
		rep.err = err
		return rep
	}
	var out0 bytes.Buffer
	start := time.Now()
	// Highest rank first: rank 0 is the one being timed, so it should find
	// its peer already listening.
	var cmds []*child
	var stderrs []*bytes.Buffer
	for r := g.ranks() - 1; r >= 0; r-- {
		cmd := e.command("tilenode", g.args(r, addrs, mode, verify)...)
		errOut := new(bytes.Buffer)
		cmd.Stderr = errOut
		if r == 0 {
			cmd.Stdout = &out0
		}
		c, err := e.start(cmd)
		if err != nil {
			rep.err = err
			break
		}
		cmds = append(cmds, c)
		stderrs = append(stderrs, errOut)
	}
	exited := make(chan struct{})
	rss := make(chan float64, 1)
	go func() { rss <- watchHWM(cmds, exited) }()
	for i, cmd := range cmds {
		if rep.err != nil {
			cmd.killGroup() // a sibling failed; do not wait out the mesh-up timeout
		}
		if err := e.wait(cmd, repDeadline); err != nil && rep.err == nil {
			rep.err = fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderrs[i].Bytes()))
		}
	}
	close(exited)
	rep.rssMB = <-rss
	rep.wall = time.Since(start).Seconds()
	if rep.err != nil {
		return rep
	}
	o, err := parseNodeOutput(out0.Bytes())
	if err == nil {
		err = o.check(g, mode, verify)
	}
	rep.err = err
	rep.elapsed = o.elapsed.Seconds()
	return rep
}
