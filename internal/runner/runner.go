package runner

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/space"
	"repro/internal/stencil"
)

// Mode selects the execution scheme.
type Mode int

const (
	// Blocking implements ProcB: per tile, blocking receives, compute,
	// blocking sends.
	Blocking Mode = iota
	// Overlapped implements ProcNB: per tile, non-blocking sends of the
	// previous tile's faces and non-blocking receives of the next tile's
	// ghosts around the compute.
	Overlapped
)

func (m Mode) String() string {
	if m == Blocking {
		return "blocking"
	}
	return "overlapped"
}

// Config describes one run.
type Config struct {
	Grid     model.Grid3D
	V        int64 // tile height along k
	Kernel   stencil.Kernel
	Boundary stencil.Boundary
	Mode     Mode
}

// Stats reports what one rank did.
type Stats struct {
	Elapsed   time.Duration
	Tiles     int
	MsgsSent  int
	MsgsRecvd int
	BytesSent int64
	// Checkpoints counts snapshots written; CheckpointBytes their total
	// on-disk size (2-D executor only).
	Checkpoints     int
	CheckpointBytes int64
	// Restore reports how a restore-enabled run started (2-D executor only).
	Restore RestoreInfo
}

// Local is one rank's subdomain after a run.
type Local struct {
	Rank         int
	PIdx, PJdx   int64 // processor grid coordinates
	BaseI, BaseJ int64 // global origin of the subdomain
	TI, TJ, K    int64
	// Data is (TI+1)×(TJ+1)×(K+1), k-contiguous, with one ghost layer at
	// −1 in every dimension: li = −1 and lj = −1 hold the west and north
	// neighbours' faces (or the boundary on ranks that have no such
	// neighbour), k = −1 holds the boundary below the first k-plane.
	Data []float64
}

func (l *Local) idx(li, lj, k int64) int64 {
	return ((li+1)*(l.TJ+1)+(lj+1))*(l.K+1) + k + 1
}

// At returns the local value at subdomain-relative coordinates
// (li ∈ [−1, TI), lj ∈ [−1, TJ), k ∈ [−1, K)).
func (l *Local) At(li, lj, k int64) float64 { return l.Data[l.idx(li, lj, k)] }

func (l *Local) set(li, lj, k int64, v float64) { l.Data[l.idx(li, lj, k)] = v }

// row returns the n values (li, lj, k0) … (li, lj, k0+n−1), which are
// contiguous in Data.
func (l *Local) row(li, lj, k0, n int64) []float64 {
	o := l.idx(li, lj, k0)
	return l.Data[o : o+n]
}

// Validate checks a Config against a communicator size.
func (cfg Config) Validate(commSize int) error {
	if err := cfg.Grid.Validate(); err != nil {
		return err
	}
	if cfg.V <= 0 || cfg.V > cfg.Grid.K {
		return fmt.Errorf("runner: tile height %d out of range (0, %d]", cfg.V, cfg.Grid.K)
	}
	if cfg.Kernel == nil {
		return fmt.Errorf("runner: nil kernel")
	}
	if cfg.Kernel.Deps().Dim() != 3 {
		return fmt.Errorf("runner: kernel %s is not 3-D", cfg.Kernel.Name())
	}
	// Only nearest-neighbor unit dependences are supported: the runner's
	// ghost exchange carries exactly the i-, j- and k-faces.
	for _, d := range cfg.Kernel.Deps().Vectors() {
		if !d.Equal(ilmath.V(1, 0, 0)) && !d.Equal(ilmath.V(0, 1, 0)) && !d.Equal(ilmath.V(0, 0, 1)) {
			return fmt.Errorf("runner: unsupported dependence %v (unit vectors only)", d)
		}
	}
	if int64(commSize) != cfg.Grid.PI*cfg.Grid.PJ {
		return fmt.Errorf("runner: communicator has %d ranks, grid wants %d×%d = %d",
			commSize, cfg.Grid.PI, cfg.Grid.PJ, cfg.Grid.PI*cfg.Grid.PJ)
	}
	if cfg.Mode != Blocking && cfg.Mode != Overlapped {
		return fmt.Errorf("runner: unknown mode %d", int(cfg.Mode))
	}
	return nil
}

// message tags: two directions per k-tile index (tile tags are 2t+dir; the
// final gather uses the mp collective's reserved tag space).
const (
	dirWest  = 0 // ghosts arriving from (pi−1, pj)
	dirNorth = 1 // ghosts arriving from (pi, pj−1)
)

func tileTag(t int64, dir int) int { return int(2*t) + dir }

// Run executes the configured schedule on communicator c and returns this
// rank's subdomain and statistics. All ranks must call Run with identical
// configurations.
//
// A kernel that implements stencil.Block3D is swept a tile at a time over
// the local array; any other kernel — including one that embeds such a
// kernel — is evaluated point by point through Eval. Both produce the same
// grid, bit for bit.
func Run(c mp.Comm, cfg Config) (*Local, Stats, error) {
	if err := cfg.Validate(c.Size()); err != nil {
		return nil, Stats{}, err
	}
	if cfg.Boundary == nil {
		cfg.Boundary = stencil.ConstBoundary(1)
	}
	g := cfg.Grid
	rank := c.Rank()
	l := &Local{
		Rank: rank,
		PIdx: int64(rank) / g.PJ,
		PJdx: int64(rank) % g.PJ,
		TI:   g.TileI(),
		TJ:   g.TileJ(),
		K:    g.K,
	}
	l.BaseI = l.PIdx * l.TI
	l.BaseJ = l.PJdx * l.TJ
	l.Data = make([]float64, (l.TI+1)*(l.TJ+1)*(l.K+1))

	r := newRun(c, cfg, l)
	r.fillBoundaryGhosts()
	if err := c.Barrier(); err != nil {
		return nil, Stats{}, err
	}
	//tilevet:allow determinism -- Stats.Elapsed is the paper's measured wall-clock output; it never feeds the computed grid
	start := time.Now()
	var err error
	switch cfg.Mode {
	case Blocking:
		err = r.runBlocking()
	case Overlapped:
		err = r.runOverlapped()
	}
	if err != nil {
		abortComm(c, err)
		return nil, Stats{}, fmt.Errorf("runner: rank %d: %w", rank, err)
	}
	if err := c.Barrier(); err != nil {
		return nil, Stats{}, err
	}
	r.stats.Elapsed = time.Since(start) //tilevet:allow determinism -- wall-clock measurement, reporting only
	return l, r.stats, nil
}

// run carries the per-rank execution state.
type run struct {
	cfg   Config
	c     mp.Comm
	l     *Local
	stats Stats

	// blk is the kernel's block fast path; nil when it offers only Eval.
	blk stencil.Block3D

	// Face buffers, allocated once and sized for a full tile, so the tile
	// loop allocates nothing of its own. A send buffer is repacked only
	// after Send, or Wait on its Isend, has returned (mp's buffer-ownership
	// contract). The overlapped schedule has tile t+1's receives posted
	// while tile t's are still being unpacked, hence two receive sets,
	// indexed by tile parity.
	sendEast, sendSouth []byte
	recvWest, recvNorth [2][]byte
	sendReqs            [2]mp.Request
}

func newRun(c mp.Comm, cfg Config, l *Local) *run {
	r := &run{cfg: cfg, c: c, l: l}
	r.blk, _ = cfg.Kernel.(stencil.Block3D)
	recvSets := 1
	if cfg.Mode == Overlapped {
		recvSets = 2
	}
	if r.hasEast() {
		r.sendEast = make([]byte, 8*l.TJ*cfg.V)
	}
	if r.hasSouth() {
		r.sendSouth = make([]byte, 8*l.TI*cfg.V)
	}
	for s := 0; s < recvSets; s++ {
		if r.hasWest() {
			r.recvWest[s] = make([]byte, 8*l.TJ*cfg.V)
		}
		if r.hasNorth() {
			r.recvNorth[s] = make([]byte, 8*l.TI*cfg.V)
		}
	}
	return r
}

func (r *run) westRank() int  { return int((r.l.PIdx-1)*r.cfg.Grid.PJ + r.l.PJdx) }
func (r *run) eastRank() int  { return int((r.l.PIdx+1)*r.cfg.Grid.PJ + r.l.PJdx) }
func (r *run) northRank() int { return int(r.l.PIdx*r.cfg.Grid.PJ + r.l.PJdx - 1) }
func (r *run) southRank() int { return int(r.l.PIdx*r.cfg.Grid.PJ + r.l.PJdx + 1) }

func (r *run) hasWest() bool  { return r.l.PIdx > 0 }
func (r *run) hasEast() bool  { return r.l.PIdx < r.cfg.Grid.PI-1 }
func (r *run) hasNorth() bool { return r.l.PJdx > 0 }
func (r *run) hasSouth() bool { return r.l.PJdx < r.cfg.Grid.PJ-1 }

// tileRange returns [k0, k0+v) for k-tile t.
func (r *run) tileRange(t int64) (k0, v int64) {
	k0 = t * r.cfg.V
	v = r.cfg.V
	if k0+v > r.cfg.Grid.K {
		v = r.cfg.Grid.K - k0
	}
	return k0, v
}

func (r *run) numTiles() int64 { return r.cfg.Grid.KTiles(r.cfg.V) }

// fillBoundaryGhosts turns the boundary from control flow into data: every
// point outside the iteration space that a local point reads gets its
// cfg.Boundary value stored in the ghost layer once, so the tile loop reads
// all three predecessors from Data without asking where it is. (Ghost
// planes that face a neighbour rank are filled tile by tile from the faces
// it sends.)
func (r *run) fillBoundaryGhosts() {
	l, b := r.l, r.cfg.Boundary
	q := ilmath.NewVec(3) // one vector for every call: a Boundary does not retain its argument
	q[2] = -1
	for li := int64(0); li < l.TI; li++ {
		for lj := int64(0); lj < l.TJ; lj++ {
			q[0], q[1] = l.BaseI+li, l.BaseJ+lj
			l.set(li, lj, -1, b(q))
		}
	}
	if !r.hasWest() {
		q[0] = -1
		for lj := int64(0); lj < l.TJ; lj++ {
			q[1] = l.BaseJ + lj
			for k, row := int64(0), l.row(-1, lj, 0, l.K); k < l.K; k++ {
				q[2] = k
				row[k] = b(q)
			}
		}
	}
	if !r.hasNorth() {
		q[1] = -1
		for li := int64(0); li < l.TI; li++ {
			q[0] = l.BaseI + li
			for k, row := int64(0), l.row(li, -1, 0, l.K); k < l.K; k++ {
				q[2] = k
				row[k] = b(q)
			}
		}
	}
}

// packEastFace packs this rank's own east-most i-plane (li = TI−1) of the
// given k range, one k-row at a time; it is the ghost plane the east
// neighbor needs.
func (r *run) packEastFace(k0, v int64) []byte {
	buf := r.sendEast[:8*r.l.TJ*v]
	for lj := int64(0); lj < r.l.TJ; lj++ {
		putF64s(buf[8*lj*v:], r.l.row(r.l.TI-1, lj, k0, v))
	}
	return buf
}

// packSouthFace packs the south-most j-plane (lj = TJ−1) for the south
// neighbor.
func (r *run) packSouthFace(k0, v int64) []byte {
	buf := r.sendSouth[:8*r.l.TI*v]
	for li := int64(0); li < r.l.TI; li++ {
		putF64s(buf[8*li*v:], r.l.row(li, r.l.TJ-1, k0, v))
	}
	return buf
}

// unpackWestGhost stores a received west ghost plane into the li = −1 layer.
func (r *run) unpackWestGhost(buf []byte, k0, v int64) {
	for lj := int64(0); lj < r.l.TJ; lj++ {
		getF64s(r.l.row(-1, lj, k0, v), buf[8*lj*v:])
	}
}

// unpackNorthGhost stores a received north ghost plane into the lj = −1
// layer.
func (r *run) unpackNorthGhost(buf []byte, k0, v int64) {
	for li := int64(0); li < r.l.TI; li++ {
		getF64s(r.l.row(li, -1, k0, v), buf[8*li*v:])
	}
}

// computeTile evaluates the kernel over the local tile [k0, k0+v). The
// block path sweeps li → lj → k, k innermost, so the three operand rows
// are contiguous and the working set is three rows of v values; the
// generic path calls Eval once per point.
func (r *run) computeTile(k0, v int64) {
	l := r.l
	if r.blk != nil {
		sj := l.K + 1
		r.blk.SweepBlock(l.Data, int(l.idx(0, 0, k0)), int(l.TI), int(l.TJ), int(v), int((l.TJ+1)*sj), int(sj))
	} else {
		get := func(q ilmath.Vec) float64 { return l.At(q[0]-l.BaseI, q[1]-l.BaseJ, q[2]) }
		for k := k0; k < k0+v; k++ {
			for li := int64(0); li < l.TI; li++ {
				for lj := int64(0); lj < l.TJ; lj++ {
					j := ilmath.V(l.BaseI+li, l.BaseJ+lj, k)
					l.set(li, lj, k, r.cfg.Kernel.Eval(j, get))
				}
			}
		}
	}
	r.stats.Tiles++
}

// runBlocking is ProcB: for each tile, blocking receives, compute, blocking
// sends.
func (r *run) runBlocking() error {
	for t := int64(0); t < r.numTiles(); t++ {
		k0, v := r.tileRange(t)
		if r.hasWest() {
			buf := r.recvWest[0][:8*r.l.TJ*v]
			if _, err := r.c.Recv(r.westRank(), tileTag(t, dirWest), buf); err != nil {
				return err
			}
			r.unpackWestGhost(buf, k0, v)
			r.stats.MsgsRecvd++
		}
		if r.hasNorth() {
			buf := r.recvNorth[0][:8*r.l.TI*v]
			if _, err := r.c.Recv(r.northRank(), tileTag(t, dirNorth), buf); err != nil {
				return err
			}
			r.unpackNorthGhost(buf, k0, v)
			r.stats.MsgsRecvd++
		}
		r.computeTile(k0, v)
		if r.hasEast() {
			buf := r.packEastFace(k0, v)
			if err := r.c.Send(r.eastRank(), tileTag(t, dirWest), buf); err != nil {
				return err
			}
			r.stats.MsgsSent++
			r.stats.BytesSent += int64(len(buf))
		}
		if r.hasSouth() {
			buf := r.packSouthFace(k0, v)
			if err := r.c.Send(r.southRank(), tileTag(t, dirNorth), buf); err != nil {
				return err
			}
			r.stats.MsgsSent++
			r.stats.BytesSent += int64(len(buf))
		}
	}
	return nil
}

// postGhostRecvs posts the non-blocking receives of tile t's ghost planes
// into receive set t&1; a nil request means no neighbour on that side.
func (r *run) postGhostRecvs(t int64) (west, north mp.Request, err error) {
	_, v := r.tileRange(t)
	if r.hasWest() {
		west, err = r.c.Irecv(r.westRank(), tileTag(t, dirWest), r.recvWest[t&1][:8*r.l.TJ*v])
		if err != nil {
			return nil, nil, err
		}
	}
	if r.hasNorth() {
		north, err = r.c.Irecv(r.northRank(), tileTag(t, dirNorth), r.recvNorth[t&1][:8*r.l.TI*v])
		if err != nil {
			return nil, nil, err
		}
	}
	return west, north, nil
}

// sendFaces starts the non-blocking sends of the faces tile t produced. The
// returned slice aliases r.sendReqs and is valid until the next call.
func (r *run) sendFaces(t int64) ([]mp.Request, error) {
	k0, v := r.tileRange(t)
	reqs := r.sendReqs[:0]
	if r.hasEast() {
		buf := r.packEastFace(k0, v)
		req, err := r.c.Isend(r.eastRank(), tileTag(t, dirWest), buf)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
		r.stats.MsgsSent++
		r.stats.BytesSent += int64(len(buf))
	}
	if r.hasSouth() {
		buf := r.packSouthFace(k0, v)
		req, err := r.c.Isend(r.southRank(), tileTag(t, dirNorth), buf)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
		r.stats.MsgsSent++
		r.stats.BytesSent += int64(len(buf))
	}
	return reqs, nil
}

// runOverlapped is ProcNB: at tile t the rank sends the faces produced by
// tile t−1, has receives posted ahead for tile t+1, and computes tile t in
// between, exactly as the paper's non-blocking pseudocode.
func (r *run) runOverlapped() error {
	// Prologue: pre-post the receives for tile 0.
	curWest, curNorth, err := r.postGhostRecvs(0)
	if err != nil {
		return err
	}
	n := r.numTiles()
	for t := int64(0); t < n; t++ {
		k0, v := r.tileRange(t)
		// Non-blocking sends of the previous tile's results.
		var sendReqs []mp.Request
		if t > 0 {
			if sendReqs, err = r.sendFaces(t - 1); err != nil {
				return err
			}
		}
		// Post receives for the next tile.
		var nextWest, nextNorth mp.Request
		if t+1 < n {
			if nextWest, nextNorth, err = r.postGhostRecvs(t + 1); err != nil {
				return err
			}
		}
		// Wait for this tile's ghosts, then compute.
		if curWest != nil {
			if _, err := curWest.Wait(); err != nil {
				return err
			}
			r.unpackWestGhost(r.recvWest[t&1], k0, v)
			r.stats.MsgsRecvd++
		}
		if curNorth != nil {
			if _, err := curNorth.Wait(); err != nil {
				return err
			}
			r.unpackNorthGhost(r.recvNorth[t&1], k0, v)
			r.stats.MsgsRecvd++
		}
		r.computeTile(k0, v)
		if err := mp.WaitAll(sendReqs...); err != nil {
			return err
		}
		curWest, curNorth = nextWest, nextNorth
	}
	// Epilogue: ship the last tile's faces.
	reqs, err := r.sendFaces(n - 1)
	if err != nil {
		return err
	}
	return mp.WaitAll(reqs...)
}

// Gather assembles the full grid on rank 0 via the mp gather collective
// (other ranks return nil). Rows along k are contiguous in Local.Data, in
// the gathered block and in stencil.Grid.Data, so they move whole.
func Gather(c mp.Comm, cfg Config, l *Local) (*stencil.Grid, error) {
	g := cfg.Grid
	blockLen := int(8 * l.TI * l.TJ * l.K)
	block := make([]byte, blockLen)
	o := int64(0)
	for li := int64(0); li < l.TI; li++ {
		for lj := int64(0); lj < l.TJ; lj++ {
			putF64s(block[o:], l.row(li, lj, 0, l.K))
			o += 8 * l.K
		}
	}
	blocks, err := mp.GatherBytesSized(c, 0, block, blockLen)
	if err != nil {
		return nil, err
	}
	if c.Rank() != 0 {
		return nil, nil
	}
	sp, err := space.Rect(g.I, g.J, g.K)
	if err != nil {
		return nil, err
	}
	out := stencil.NewGrid(sp)
	for rank, buf := range blocks {
		pi, pj := int64(rank)/g.PJ, int64(rank)%g.PJ
		o := int64(0)
		for li := int64(0); li < l.TI; li++ {
			for lj := int64(0); lj < l.TJ; lj++ {
				at := ((pi*l.TI+li)*g.J + pj*l.TJ + lj) * g.K
				getF64s(out.Data[at:at+g.K], buf[o:])
				o += 8 * g.K
			}
		}
	}
	return out, nil
}

// VerifySequential runs the kernel sequentially over the full space and
// returns the maximum absolute difference against the gathered grid.
func VerifySequential(g *stencil.Grid, cfg Config) (float64, error) {
	sp, err := space.Rect(cfg.Grid.I, cfg.Grid.J, cfg.Grid.K)
	if err != nil {
		return 0, err
	}
	ref, err := stencil.RunSequential(sp, cfg.Kernel, cfg.Boundary)
	if err != nil {
		return 0, err
	}
	return stencil.MaxAbsDiff(g, ref)
}

// putF64s writes src to dst as big-endian IEEE-754 doubles, the wire and
// checkpoint format of every float the runner ships.
func putF64s(dst []byte, src []float64) {
	dst = dst[:8*len(src)]
	for i, x := range src {
		binary.BigEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// getF64s fills dst from the big-endian doubles at the front of src.
func getF64s(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(src[8*i:]))
	}
}
