package runner

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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

// Config describes one run of the paper's Section 5 shape: an I×J×K space on
// a PI×PJ processor grid, every rank executing its column of tiles along k.
type Config struct {
	Grid     model.Grid3D
	V        int64 // tile height along k
	Kernel   stencil.Kernel
	Boundary stencil.Boundary
	Mode     Mode
	// Checkpoint enables periodic snapshots and restart (see checkpoint.go).
	Checkpoint CheckpointConfig
}

// Config2D describes one run of the paper's Example 1 shape: an I1×I2 space
// with dependences ⊆ {(1,1),(1,0),(0,1)}, mapped along dimension 0 — each
// rank owns a strip of columns (a balanced partition of I2, so every rank
// gets at least one whenever there are no more ranks than columns) and
// executes its tiles of S1 rows bottom-up.
type Config2D struct {
	I1, I2   int64 // iteration space extents
	S1       int64 // tile side along dim 0 (local steps: ceil(I1/S1))
	Kernel   stencil.Kernel
	Boundary stencil.Boundary
	Mode     Mode
	// Checkpoint enables periodic snapshots and restart (see checkpoint.go).
	Checkpoint CheckpointConfig
}

// Stats reports what one rank did.
type Stats struct {
	Elapsed   time.Duration
	Tiles     int
	MsgsSent  int
	MsgsRecvd int
	BytesSent int64
	// Checkpoints counts snapshots written; CheckpointBytes their total
	// on-disk size.
	Checkpoints     int
	CheckpointBytes int64
	// Restore reports how a restore-enabled run started.
	Restore RestoreInfo
}

// problem is a Config or a Config2D in the executor's own terms: a box of
// space[0]×space[1]×space[2] points along the local axes i, j, k, cut into
// procs[0]×procs[1] columns (rank = pi·procs[1] + pj) whose owners each
// execute their tiles of height v along k — the mapping dimension — in order.
// Example 1 is the case of one i-row on a 1×P grid with k its dimension 0.
type problem struct {
	procs [2]int64
	space [3]int64
	v     int64
	// axis[x] is the local axis (0, 1, 2 for i, j, k) that component x of the
	// kernel's vectors runs along.
	axis       []int
	kernel     stencil.Kernel
	boundary   stencil.Boundary
	mode       Mode
	checkpoint CheckpointConfig
}

func (cfg Config) problem() problem {
	g := cfg.Grid
	return problem{
		procs: [2]int64{g.PI, g.PJ}, space: [3]int64{g.I, g.J, g.K}, v: cfg.V, axis: []int{0, 1, 2},
		kernel: cfg.Kernel, boundary: cfg.Boundary, mode: cfg.Mode, checkpoint: cfg.Checkpoint,
	}
}

func (cfg Config2D) problem(commSize int) problem {
	return problem{
		procs: [2]int64{1, int64(commSize)}, space: [3]int64{1, cfg.I2, cfg.I1}, v: cfg.S1, axis: []int{2, 1},
		kernel: cfg.Kernel, boundary: cfg.Boundary, mode: cfg.Mode, checkpoint: cfg.Checkpoint,
	}
}

// Validate checks a Config against a communicator size.
func (cfg Config) Validate(commSize int) error {
	if err := cfg.Grid.Validate(); err != nil {
		return err
	}
	return cfg.problem().validate(commSize)
}

// Validate checks a Config2D against a communicator size.
func (cfg Config2D) Validate(commSize int) error { return cfg.problem(commSize).validate(commSize) }

func (p problem) tiles() int64 { return (p.space[2] + p.v - 1) / p.v }

func (p problem) validate(commSize int) error {
	if p.space[0] <= 0 || p.space[1] <= 0 || p.space[2] <= 0 {
		return fmt.Errorf("runner: non-positive space %v", p.space)
	}
	if p.v <= 0 || p.v > p.space[2] {
		return fmt.Errorf("runner: tile height %d out of range (0, %d]", p.v, p.space[2])
	}
	// Tile tags are 2t+dir and must stay below gatherTag, the last user tag
	// (past it the collectives' begin, and a face could match the restore
	// AllReduce).
	if 2*p.tiles() > gatherTag {
		return fmt.Errorf("runner: %d tiles per rank, tags allow %d", p.tiles(), gatherTag/2)
	}
	if p.kernel == nil {
		return fmt.Errorf("runner: nil kernel")
	}
	if _, err := p.faceOverlap(); err != nil {
		return err
	}
	if commSize <= 0 || int64(commSize) != p.procs[0]*p.procs[1] || p.procs[0] > p.space[0] || p.procs[1] > p.space[1] {
		return fmt.Errorf("runner: communicator has %d ranks, want a %d×%d grid over space %v with a point for each",
			commSize, p.procs[0], p.procs[1], p.space)
	}
	if p.mode != Blocking && p.mode != Overlapped {
		return fmt.Errorf("runner: unknown mode %d", int(p.mode))
	}
	return p.checkpoint.validate()
}

// faceOverlap checks the kernel's dependences against what the ghost
// exchange carries and returns c, the number of rows below a tile that ride
// along in its face messages. Written as a local (i, j, k) step, every
// dependence must have components in {0, 1} and cross at most one of i and j:
// the faces are the planes i = −1 and j = −1, never their common edge. c is 1
// when some dependence crosses to a neighbour rank and steps along k at once
// — Example 1's (1,1) — because the value it reads for a tile's first row
// sits one row below the tile.
func (p problem) faceOverlap() (c int64, err error) {
	d := p.kernel.Deps()
	if d.Dim() != len(p.axis) {
		return 0, fmt.Errorf("runner: kernel %s is not %d-D", p.kernel.Name(), len(p.axis))
	}
	for _, vec := range d.Vectors() {
		var s [3]int64
		for x, a := range p.axis {
			s[a] = vec[x]
		}
		if s[0]|s[1]|s[2] != 1 || s[0]+s[1] > 1 {
			return 0, fmt.Errorf("runner: unsupported dependence %v (components in {0,1}, at most one across ranks)", vec)
		}
		if s[0]+s[1] == 1 && s[2] == 1 {
			c = 1
		}
	}
	return c, nil
}

// geometry is the box one rank owns.
type geometry struct {
	Rank         int
	BaseI, BaseJ int64 // global origin
	TI, TJ, K    int64 // extents
	// gi is the number of ghost planes below li = 0: 1 when the kernel has an
	// i axis, else 0. j and k always have one.
	gi int64
	// w is the number of k-slots a row keeps after its slot 0: K when the
	// run keeps the grid, a ring (ringSlots) when it is only timed.
	w int64
}

// split is the balanced partition of n points over parts owners: the first
// n mod parts get one extra, so nobody is left empty while parts ≤ n.
func split(n, parts, idx int64) (base, width int64) {
	q, r := n/parts, n%parts
	base, next := idx*q+min(idx, r), (idx+1)*q+min(idx+1, r)
	return base, next - base
}

func (p problem) geometry(rank int) geometry {
	g := geometry{Rank: rank, K: p.space[2], w: p.space[2]}
	g.BaseI, g.TI = split(p.space[0], p.procs[0], int64(rank)/p.procs[1])
	g.BaseJ, g.TJ = split(p.space[1], p.procs[1], int64(rank)%p.procs[1])
	if slices.Contains(p.axis, 0) {
		g.gi = 1
	}
	return g
}

// idx is the Data offset of local (li, lj, k): row (li, lj) holds w+1
// slots, slot 0 the plane below the tile in it and k at slot 1 + k mod w.
// With w = K that is every k in order after the k = −1 boundary; on a ring
// a tile never straddles the wrap, and one that starts at slot 1 finds
// k0−1 copied into slot 0 (see enterTile), so within a tile and the plane
// below it consecutive k are still adjacent.
func (g *geometry) idx(li, lj, k int64) int64 { return g.row(li, lj) + k%g.w + 1 }

// row is the Data offset of row (li, lj): its slot 0.
func (g *geometry) row(li, lj int64) int64 { return ((li+g.gi)*(g.TJ+1) + (lj + 1)) * (g.w + 1) }

// Local is one rank's subdomain after a run.
type Local struct {
	geometry
	// Data is (TI+1)×(TJ+1)×(K+1), k-contiguous, with one ghost layer at −1
	// in every dimension (a 2-D run has TI = 1 and no i ghost): li = −1 and
	// lj = −1 hold the west and north neighbours' faces (or the boundary on
	// ranks that have no such neighbour), k = −1 holds the boundary below
	// the first k-plane.
	Data []float64
}

// Run executes the configured schedule on communicator c and returns this
// rank's subdomain and statistics. All ranks must call Run with identical
// configurations. On a failure inside the tile loop the statistics gathered
// so far travel with the error: a supervisor accounting wasted work wants to
// know how far this attempt got.
//
// A kernel that implements stencil.Block3D is swept a tile at a time over
// the local array; any other kernel — including one that embeds such a
// kernel — is evaluated point by point through Eval. Both produce the same
// grid, bit for bit.
func Run(c mp.Comm, cfg Config) (*Local, Stats, error) {
	if err := cfg.Validate(c.Size()); err != nil {
		return nil, Stats{}, err
	}
	return cfg.problem().run(c, cfg.Grid.K)
}

// Run2D is Run for the Example 1 shape.
func Run2D(c mp.Comm, cfg Config2D) (*Local, Stats, error) {
	if err := cfg.Validate(c.Size()); err != nil {
		return nil, Stats{}, err
	}
	return cfg.problem(c.Size()).run(c, cfg.I1)
}

// Time is Run for a caller that only times the run: the same schedule,
// messages and Stats, but no grid. Each rank keeps a ring of whole tiles
// (one tile, or minRing k-slots) per k-row instead of its whole column, so
// its memory is O(TI·TJ·V), not O(TI·TJ·K), and the tile loop reuses pages
// it has touched rather than faulting in fresh ones. A ring cannot be snapshotted
// into a restorable grid, so a Config with Checkpoint.Dir or
// Checkpoint.Restore set is an error, reported before any allocation or
// message. Ranks may mix Time and Run in one run.
func Time(c mp.Comm, cfg Config) (Stats, error) {
	if err := cfg.Checkpoint.timeable(); err != nil {
		return Stats{}, err
	}
	if err := cfg.Validate(c.Size()); err != nil {
		return Stats{}, err
	}
	_, st, err := cfg.problem().run(c, ringSlots(cfg.V, cfg.Grid.K))
	return st, err
}

// Time2D is Time for the Example 1 shape.
func Time2D(c mp.Comm, cfg Config2D) (Stats, error) {
	if err := cfg.Checkpoint.timeable(); err != nil {
		return Stats{}, err
	}
	if err := cfg.Validate(c.Size()); err != nil {
		return Stats{}, err
	}
	_, st, err := cfg.problem(c.Size()).run(c, ringSlots(cfg.S1, cfg.I1))
	return st, err
}

// ringSlots is the k-slots per row of a timed run with tiles of height v
// along k extent K: the smallest multiple of v that is at least minRing
// slots, never more than K. One tile is enough: a tile overwrites the one
// before it only once that tile's faces are packed — both schedules copy
// them into the send buffer before the next tile computes — and the row
// below it sits in slot 0 (see enterTile).
func ringSlots(v, k int64) int64 { return min(k, v*((minRing+v-1)/v)) }

// minRing keeps a ring's laps long enough that the wrap copy and the lap's
// boundary fill stay off most tiles. A lap of two slots puts them on every
// other tile, which cost node3d-fine's V = 1 (8×2×16384 on 1×2 over TCP,
// 16384 tiles a rank) what the ring saved in first touch; 128 slots are one
// node3d-coarse tile.
const minRing = 128

// run executes p with w k-slots per row (see geometry.idx): K keeps the
// grid, a multiple of v smaller than K is a ring.
func (p problem) run(c mp.Comm, w int64) (*Local, Stats, error) {
	if p.boundary == nil {
		p.boundary = stencil.ConstBoundary(1)
	}
	rank := c.Rank()
	l := &Local{geometry: p.geometry(rank)}
	l.w = w
	l.Data = make([]float64, (l.TI+l.gi)*(l.TJ+1)*(l.w+1))
	r := newRun(c, p, l)
	if p.checkpoint.Dir != "" {
		removeOrphanTemps(p.checkpoint.Dir, rank)
	}
	// Agree on a restart tile before any compute: the AllReduce inside
	// restore doubles as the first synchronization point.
	var startTile int64
	if p.checkpoint.Restore {
		info, err := r.restore()
		if err != nil {
			abortComm(c, err)
			return nil, Stats{}, fmt.Errorf("runner: rank %d restore: %w", rank, err)
		}
		r.stats.Restore = info
		startTile = info.StartTile
	}
	// After the restore decision: a peer-forced fresh start zeroes Data.
	r.fillLap(startTile * p.v)
	if err := c.Barrier(); err != nil {
		return nil, Stats{}, err
	}
	//tilevet:allow determinism -- Stats.Elapsed is the paper's measured wall-clock output; it never feeds the computed grid
	start := time.Now()
	var err error
	if p.mode == Blocking {
		err = r.runBlocking(startTile)
	} else {
		err = r.runOverlapped(startTile)
	}
	if err != nil {
		abortComm(c, err)
		return nil, r.stats, fmt.Errorf("runner: rank %d: %w", rank, err)
	}
	if err := c.Barrier(); err != nil {
		return nil, r.stats, err
	}
	r.stats.Elapsed = time.Since(start) //tilevet:allow determinism -- wall-clock measurement, reporting only
	return l, r.stats, nil
}

// The two directions a face can travel; message tags are 2t+dir for tile t
// (the restore agreement uses mp's reserved collective tags, the gather
// gatherTag).
const (
	dirWest  = 0 // across i: ghosts arriving from (pi−1, pj)
	dirNorth = 1 // across j: ghosts arriving from (pi, pj−1)
)

func tileTag(t int64, dir int) int { return int(2*t) + dir }

// face is one direction's half of the ghost exchange: the plane of k-rows
// that arrives from the rank upstream into this rank's ghost layer, and this
// rank's own last plane, which the rank downstream needs in turn.
type face struct {
	dir             int   // dirWest or dirNorth
	up, down        int   // neighbour ranks, −1 where the processor grid ends
	rows, rowStride int64 // k-rows in the plane, and their distance in Data
	ghost, own      int64 // Data offset of (row 0, k = 0) in the ghost plane and in the own last plane

	// Buffers sized for a full tile and allocated once, so the tile loop
	// allocates nothing of its own. The send buffer is repacked only after
	// Send, or Wait on its Isend, has returned (mp's buffer-ownership
	// contract). The overlapped schedule has tile t+1's receive posted while
	// tile t's is still being unpacked, hence two receive buffers, indexed
	// by tile parity, and a persistent receive into each, made once and
	// started again with every other tile's tag.
	send    []byte
	recv    [2][]byte
	sendReq mp.Request
	recvReq [2]mp.Persistent
}

// run carries the per-rank execution state.
type run struct {
	p       problem
	c       mp.Comm
	l       *Local
	stats   Stats
	tiles   int64 // tiles along k
	overlap int64 // p.faceOverlap's c
	face    [2]face
	ups     []*face         // the faces that have a rank upstream
	downs   []*face         // ... downstream
	bounds  []*face         // the faces whose ghost plane holds the boundary
	kx      int             // the component of a kernel-space point that runs along k
	blk     stencil.Block3D // the kernel's block fast path; nil when it offers only Eval
	pt      ilmath.Vec      // the one vector handed to Eval and Boundary: neither keeps it
	ckBuf   []byte          // the snapshot buffer, made by the first checkpoint
}

func newRun(c mp.Comm, p problem, l *Local) *run {
	r := &run{p: p, c: c, l: l, tiles: p.tiles(), pt: ilmath.NewVec(len(p.axis)), kx: slices.Index(p.axis, 2)}
	r.overlap, _ = p.faceOverlap() // validate has seen the error
	r.blk, _ = p.kernel.(stencil.Block3D)
	coord := [2]int64{int64(l.Rank) / p.procs[1], int64(l.Rank) % p.procs[1]}
	step := [2]int{int(p.procs[1]), 1} // rank distance to the next column along i, j
	ext, stride := [2]int64{l.TI, l.TJ}, [2]int64{(l.TJ + 1) * (l.w + 1), l.w + 1}
	for dir := range r.face {
		f := &r.face[dir]
		f.dir, f.up, f.down = dir, -1, -1
		f.rows, f.rowStride = ext[1-dir], stride[1-dir]
		f.ghost, f.own = l.idx(0, 0, 0)-stride[dir], l.idx(0, 0, 0)+(ext[dir]-1)*stride[dir]
		n := 8 * f.rows * (p.v + r.overlap)
		if coord[dir] < p.procs[dir]-1 {
			f.down, f.send = l.Rank+step[dir], make([]byte, n)
			r.downs = append(r.downs, f)
		}
		if coord[dir] > 0 {
			f.up, f.recv[0] = l.Rank-step[dir], make([]byte, n)
			if p.mode == Overlapped {
				f.recv[1] = make([]byte, n)
			}
			r.ups = append(r.ups, f)
		} else if dir != dirWest || l.gi == 1 { // the plane exists and no neighbour fills it
			r.bounds = append(r.bounds, f)
		}
	}
	return r
}

// tileRange returns [k0, k0+v) for k-tile t.
func (r *run) tileRange(t int64) (k0, v int64) {
	k0 = t * r.p.v
	return k0, min(r.p.v, r.l.K-k0)
}

// point writes the kernel-space coordinates of local (li, lj, k) into r.pt.
func (r *run) point(li, lj, k int64) ilmath.Vec {
	at := [3]int64{r.l.BaseI + li, r.l.BaseJ + lj, k}
	for x, a := range r.p.axis {
		r.pt[x] = at[a]
	}
	return r.pt
}

// enterTile readies the rows of the tile that starts at k0. Only a tile
// that starts a new lap of a ring has anything to do: it copies k0−1 from
// each row's last slot into slot 0, where the sweep, Eval and the faces
// that ride along read it, and fills the lap's boundary.
func (r *run) enterTile(k0 int64) {
	l := r.l
	if k0 == 0 || k0%l.w != 0 {
		return
	}
	for li := int64(0); li < l.TI; li++ {
		for lj := int64(0); lj < l.TJ; lj++ {
			o := l.row(li, lj)
			l.Data[o] = l.Data[o+l.w]
		}
	}
	r.fillLap(k0)
}

// fillLap turns the boundary from control flow into data for the lap of
// the ring that starts at k0 (or, on a restored run, resumes there) and
// runs to the ring's last slot or to K: every point outside the iteration
// space that a tile of the lap reads gets its Boundary value stored in the
// ghost layer — the k = −1 plane when k0 = 0, the boundary planes over the
// lap's k range — so the tile loop reads all its predecessors from Data
// without asking where it is. With w = K the lap is the whole column,
// filled once before the loop. (Ghost planes that face a neighbour rank
// are filled tile by tile from the faces it sends.)
func (r *run) fillLap(k0 int64) {
	l, b, c := r.l, r.p.boundary, r.overlap
	s := k0 % l.w // the lap's first slot, less one
	if k0 == 0 {
		for li := int64(0); li < l.TI; li++ {
			for lj := int64(0); lj < l.TJ; lj++ {
				l.Data[l.row(li, lj)] = b(r.point(li, lj, -1))
			}
		}
	}
	for _, f := range r.bounds {
		for n := int64(0); n < f.rows; n++ {
			at := [2]int64{n, n}
			at[f.dir] = -1
			q, row := r.point(at[0], at[1], 0), l.Data[f.ghost+n*f.rowStride+s-c:][:min(l.w-s, l.K-k0)+c]
			for i := range row {
				q[r.kx] = k0 - c + int64(i)
				row[i] = b(q)
			}
		}
	}
}

// faceBytes is the size of f's message for a tile of height v.
func (r *run) faceBytes(f *face, v int64) int64 { return 8 * f.rows * (v + r.overlap) }

// packFace packs, for the rank downstream, this rank's own last plane over
// the k range [k0−c, k0+v), one k-row at a time: the ghost plane that rank's
// tile [k0, k0+v) reads. The c rows below the tile are the previous tile's
// (at k0 = 0, the k = −1 boundary ghost — the very point the receiver's
// corner stands for).
func (r *run) packFace(f *face, k0, v int64) []byte {
	w, buf, o := v+r.overlap, f.send[:r.faceBytes(f, v)], f.own+k0%r.l.w-r.overlap
	for n := int64(0); n < f.rows; n++ {
		putF64s(buf[8*n*w:], r.l.Data[o+n*f.rowStride:][:w])
	}
	return buf
}

// unpackFace stores a received face into f's ghost plane.
func (r *run) unpackFace(f *face, buf []byte, k0, v int64) {
	w, o := v+r.overlap, f.ghost+k0%r.l.w-r.overlap
	for n := int64(0); n < f.rows; n++ {
		getF64s(r.l.Data[o+n*f.rowStride:][:w], buf[8*n*w:])
	}
	r.stats.MsgsRecvd++
}

// computeTile readies the tile's rows (enterTile) and evaluates the kernel
// over the local tile [k0, k0+v). The block path hands the kernel the whole
// tile, k-contiguous, and the kernel picks the order; the generic path
// calls Eval once per point.
func (r *run) computeTile(k0, v int64) {
	r.enterTile(k0)
	l := r.l
	strides := [3]int64{(l.TJ + 1) * (l.w + 1), l.w + 1, 1}
	if r.blk != nil {
		r.blk.SweepBlock(l.Data, int(l.idx(0, 0, k0)), int(l.TI), int(l.TJ), int(v), int(strides[0]), int(strides[1]))
	} else {
		// The offset kernel-space k = 0 would have if the tile's stretch of
		// the ring went on downwards.
		origin := l.idx(-l.BaseI, -l.BaseJ, k0) - k0
		get := func(q ilmath.Vec) float64 { // the inverse of point
			o := origin
			for x, a := range r.p.axis {
				o += q[x] * strides[a]
			}
			return l.Data[o]
		}
		for k := k0; k < k0+v; k++ {
			for li := int64(0); li < l.TI; li++ {
				for lj := int64(0); lj < l.TJ; lj++ {
					l.Data[l.idx(li, lj, k)] = r.p.kernel.Eval(r.point(li, lj, k), get)
				}
			}
		}
	}
	r.stats.Tiles++
}

// runBlocking is ProcB: for each tile, blocking receives, compute, blocking
// sends.
func (r *run) runBlocking(start int64) error {
	for t := start; t < r.tiles; t++ {
		k0, v := r.tileRange(t)
		for _, f := range r.ups {
			buf := f.recv[0][:r.faceBytes(f, v)]
			if _, err := r.c.Recv(f.up, tileTag(t, f.dir), buf); err != nil {
				return err
			}
			r.unpackFace(f, buf, k0, v)
		}
		r.computeTile(k0, v)
		for _, f := range r.downs {
			buf := r.packFace(f, k0, v)
			if err := r.c.Send(f.down, tileTag(t, f.dir), buf); err != nil {
				return err
			}
			r.sent(buf)
		}
		if err := r.maybeCheckpoint(t); err != nil {
			return err
		}
	}
	return nil
}

// initGhostRecvs makes the persistent receives of the overlapped schedule,
// one into each receive buffer.
func (r *run) initGhostRecvs() (err error) {
	for _, f := range r.ups {
		for b := range f.recvReq {
			if f.recvReq[b], err = r.c.RecvInit(f.up, f.recv[b]); err != nil {
				return err
			}
		}
	}
	return nil
}

// postGhostRecvs starts the receives of tile t's ghost planes into receive
// buffers t&1.
func (r *run) postGhostRecvs(t int64) error {
	for _, f := range r.ups {
		if err := f.recvReq[t&1].Start(tileTag(t, f.dir)); err != nil {
			return err
		}
	}
	return nil
}

// waitGhosts waits for tile t's ghost planes and unpacks them. A receive
// buffer holds a full tile, so the size of a short last tile's face is
// checked here.
func (r *run) waitGhosts(t, k0, v int64) error {
	for _, f := range r.ups {
		st, err := f.recvReq[t&1].Wait()
		if err != nil {
			return err
		}
		if want := r.faceBytes(f, v); int64(st.Bytes) != want {
			return fmt.Errorf("tile %d: a face of %d bytes from rank %d, want %d", t, st.Bytes, f.up, want)
		}
		r.unpackFace(f, f.recv[t&1], k0, v)
	}
	return nil
}

// sendFaces starts the non-blocking sends of the faces tile t produced;
// waitSends completes them.
func (r *run) sendFaces(t int64) (err error) {
	k0, v := r.tileRange(t)
	for _, f := range r.downs {
		buf := r.packFace(f, k0, v)
		if f.sendReq, err = r.c.Isend(f.down, tileTag(t, f.dir), buf); err != nil {
			return err
		}
		r.sent(buf)
	}
	return nil
}

func (r *run) waitSends() error { return mp.WaitAll(r.face[0].sendReq, r.face[1].sendReq) }

func (r *run) sent(buf []byte) {
	r.stats.MsgsSent++
	r.stats.BytesSent += int64(len(buf))
}

// runOverlapped is ProcNB: at tile t the rank sends the faces produced by
// tile t−1, has receives posted ahead for tile t+1, and computes tile t in
// between, exactly as the paper's non-blocking pseudocode.
//
// The restart rule: a snapshot is taken after tile t's compute, when this
// rank has shipped the faces of tiles < t and unpacked the ghosts of tiles
// ≤ t. So on a run restored at tile start, tile start−1's face was consumed
// before the neighbour's snapshot — its ghosts are in the neighbour's Data —
// and the first face sent is tile start's, one iteration later.
func (r *run) runOverlapped(start int64) error {
	// Prologue: make the receives and pre-post them for the first tile.
	if err := r.initGhostRecvs(); err != nil {
		return err
	}
	if err := r.postGhostRecvs(start); err != nil {
		return err
	}
	for t := start; t < r.tiles; t++ {
		k0, v := r.tileRange(t)
		// Non-blocking sends of the previous tile's results.
		if t > start {
			if err := r.sendFaces(t - 1); err != nil {
				return err
			}
		}
		// Post receives for the next tile.
		if t+1 < r.tiles {
			if err := r.postGhostRecvs(t + 1); err != nil {
				return err
			}
		}
		// Wait for this tile's ghosts, then compute.
		if err := r.waitGhosts(t, k0, v); err != nil {
			return err
		}
		r.computeTile(k0, v)
		if err := r.waitSends(); err != nil {
			return err
		}
		if err := r.maybeCheckpoint(t); err != nil {
			return err
		}
	}
	// Epilogue: ship the last tile's faces.
	if err := r.sendFaces(r.tiles - 1); err != nil {
		return err
	}
	return r.waitSends()
}

// Gather assembles the full grid on rank 0 (other ranks return nil). Every
// rank must call it, after Run.
func Gather(c mp.Comm, cfg Config, l *Local) (*stencil.Grid, error) {
	return cfg.problem().gather(c, l)
}

// Gather2D is Gather for the Example 1 shape.
func Gather2D(c mp.Comm, cfg Config2D, l *Local) (*stencil.Grid, error) {
	return cfg.problem(c.Size()).gather(c, l)
}

const (
	// gatherChunk bounds one gather message, far below the TCP transport's
	// frame limit whatever the box, and large enough that the per-message
	// cost vanishes next to the bytes.
	gatherChunk = 1 << 20
	// gatherTag carries the gather's chunks and the credits rank 0 answers
	// them with: the last user tag, which Validate keeps every tile tag below.
	gatherTag = mp.UserTagLimit - 1
)

// gather streams every rank's owned values to rank 0, which stores them
// straight into the kernel-space grid. A box travels as a run of chunks of
// at most gatherChunk bytes, its values in (li, lj, k) order, so both sides
// cut the same chunks from the geometry alone and no size is sent. Rank 0
// takes the ranks in order and, through two reused buffers, posts the
// receive for chunk n+1 and sends that chunk's credit (an empty message)
// before it decodes chunk n; a sender ships a chunk only once its credit is
// in. So every chunk finds its receive posted, nothing waits in rank 0's
// mailbox, and the gather holds the grid plus two chunks on rank 0 and two
// chunks on every other rank.
func (p problem) gather(c mp.Comm, l *Local) (*stencil.Grid, error) {
	var out *stencil.Grid
	var err error
	if c.Rank() == 0 {
		out, err = p.assemble(c, l)
	} else {
		err = sendBox(c, l)
	}
	if err != nil {
		abortComm(c, err) // a peer waiting on a chunk or a credit unwinds
		return nil, fmt.Errorf("runner: rank %d gather: %w", c.Rank(), err)
	}
	return out, nil
}

// chunkValues is how many values one gather chunk holds.
const chunkValues = gatherChunk / 8

// chunkRange is the value range [v0, v1) of chunk n of a box of total values.
func chunkRange(n, total int64) (v0, v1 int64) {
	v0 = n * chunkValues
	return v0, min(v0+chunkValues, total)
}

// points is the number of values the box holds.
func (g *geometry) points() int64 { return g.TI * g.TJ * g.K }

// rowSpans splits the values [v0, v1) of the box, in (li, lj, k) order, at
// its k-row ends and calls fn for each piece: n values of row (li, lj) from
// k on, off values after v0.
func (g *geometry) rowSpans(v0, v1 int64, fn func(li, lj, k, n, off int64)) {
	for v := v0; v < v1; {
		row, k := v/g.K, v%g.K
		n := min(g.K-k, v1-v)
		fn(row/g.TJ, row%g.TJ, k, n, v-v0)
		v += n
	}
}

// sendBox is a non-root rank's half of gather: pack a chunk into the buffer
// whose previous send has completed, wait for its credit, ship it.
func sendBox(c mp.Comm, l *Local) error {
	var bufs [2][]byte
	var reqs [2]mp.Request
	total := l.points()
	for n := int64(0); n*chunkValues < total; n++ {
		v0, v1 := chunkRange(n, total)
		b := n & 1
		if reqs[b] != nil {
			if _, err := reqs[b].Wait(); err != nil {
				return err
			}
		}
		if bufs[b] == nil {
			bufs[b] = make([]byte, 8*min(chunkValues, total))
		}
		buf := bufs[b][:8*(v1-v0)]
		l.rowSpans(v0, v1, func(li, lj, k, m, off int64) {
			putF64s(buf[8*off:], l.Data[l.idx(li, lj, k):][:m])
		})
		if _, err := c.Recv(0, gatherTag, nil); err != nil {
			return err
		}
		var err error
		if reqs[b], err = c.Isend(0, gatherTag, buf); err != nil {
			return err
		}
	}
	return mp.WaitAll(reqs[0], reqs[1])
}

// assemble is rank 0's half of gather.
func (p problem) assemble(c mp.Comm, l *Local) (*stencil.Grid, error) {
	// The grid is row-major over the kernel's dimensions, each as long as
	// the local axis it runs along; consecutive k are stride[2] apart (1 when
	// k is the kernel's last dimension).
	dims := make([]int64, len(p.axis))
	var stride [3]int64 // grid stride by local axis
	for x, n := len(p.axis)-1, int64(1); x >= 0; x-- {
		dims[x], stride[p.axis[x]] = p.space[p.axis[x]], n
		n *= dims[x]
	}
	sp, err := space.Rect(dims...)
	if err != nil {
		return nil, err
	}
	out := stencil.NewGrid(sp)
	// at is the grid offset of local (li, lj, k) in box g.
	at := func(g *geometry, li, lj, k int64) int64 {
		return (g.BaseI+li)*stride[0] + (g.BaseJ+lj)*stride[1] + k*stride[2]
	}
	l.rowSpans(0, l.points(), func(li, lj, k, m, _ int64) {
		storeF64s(out.Data, at(&l.geometry, li, lj, k), stride[2], l.Data[l.idx(li, lj, k):][:m])
	})

	var most int64 // the largest chunk any rank sends
	for rank := 1; rank < c.Size(); rank++ {
		g := p.geometry(rank)
		most = max(most, min(chunkValues, g.points()))
	}
	var bufs [2][]byte
	var reqs [2]mp.Request
	for rank := 1; rank < c.Size(); rank++ {
		g := p.geometry(rank)
		total := g.points()
		post := func(n int64) (err error) {
			v0, v1 := chunkRange(n, total)
			b := n & 1
			if bufs[b] == nil {
				bufs[b] = make([]byte, 8*most)
			}
			if reqs[b], err = c.Irecv(rank, gatherTag, bufs[b][:8*(v1-v0)]); err != nil {
				return err
			}
			return c.Send(rank, gatherTag, nil)
		}
		if err := post(0); err != nil {
			return nil, err
		}
		for n := int64(0); n*chunkValues < total; n++ {
			if (n+1)*chunkValues < total {
				if err := post(n + 1); err != nil {
					return nil, err
				}
			}
			v0, v1 := chunkRange(n, total)
			st, err := reqs[n&1].Wait()
			if err != nil {
				return nil, fmt.Errorf("chunk %d from rank %d: %w", n, rank, err)
			}
			if int64(st.Bytes) != 8*(v1-v0) {
				return nil, fmt.Errorf("chunk %d from rank %d has %d bytes, want %d (its box is %d×%d×%d)",
					n, rank, st.Bytes, 8*(v1-v0), g.TI, g.TJ, g.K)
			}
			buf := bufs[n&1]
			g.rowSpans(v0, v1, func(li, lj, k, m, off int64) {
				decodeF64s(out.Data, at(&g, li, lj, k), stride[2], buf[8*off:][:8*m])
			})
		}
	}
	return out, nil
}

// VerifySequential runs the kernel sequentially over the full space and
// returns the maximum absolute difference against the gathered grid.
func VerifySequential(g *stencil.Grid, cfg Config) (float64, error) {
	ref, err := stencil.RunSequential(g.Space, cfg.Kernel, cfg.Boundary)
	if err != nil {
		return 0, err
	}
	return stencil.MaxAbsDiff(g, ref)
}

// VerifySequential2D is VerifySequential for the Example 1 shape.
func VerifySequential2D(g *stencil.Grid, cfg Config2D) (float64, error) {
	return VerifySequential(g, Config{Kernel: cfg.Kernel, Boundary: cfg.Boundary})
}

// putF64s writes src to dst as big-endian IEEE-754 doubles, the wire and
// checkpoint format of every float the runner ships.
func putF64s(dst []byte, src []float64) {
	dst = dst[:8*len(src)]
	for i, x := range src {
		binary.BigEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// storeF64s stores src at dst[o], dst[o+s], dst[o+2s], …
func storeF64s(dst []float64, o, s int64, src []float64) {
	if s == 1 {
		copy(dst[o:][:len(src)], src)
		return
	}
	for i, x := range src {
		dst[o+int64(i)*s] = x
	}
}

// decodeF64s stores the big-endian doubles of src at dst[o], dst[o+s],
// dst[o+2s], …
func decodeF64s(dst []float64, o, s int64, src []byte) {
	if s == 1 {
		getF64s(dst[o:][:len(src)/8], src)
		return
	}
	for i := int64(0); i < int64(len(src)/8); i++ {
		dst[o+i*s] = math.Float64frombits(binary.BigEndian.Uint64(src[8*i:]))
	}
}

// getF64s fills dst from the big-endian doubles at the front of src.
func getF64s(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(src[8*i:]))
	}
}
