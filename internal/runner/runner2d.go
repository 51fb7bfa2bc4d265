package runner

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/ilmath"
	"repro/internal/mp"
	"repro/internal/space"
	"repro/internal/stencil"
)

// The 2-D executor runs the paper's Example 1 loop shape for real: an
// I1×I2 iteration space with dependences ⊆ {(1,1),(1,0),(0,1)}, tiled
// s1×s2, mapped along dimension 0 (each rank owns a strip of s2 columns and
// executes its column of tiles bottom-up, the paper's "all tiles along a
// certain dimension are mapped to the same processor").
//
// Cross-rank communication flows only left-to-right: the ghost needed by
// rank p's tile t is rank p−1's rightmost column over the tile's rows plus
// one row above it (for the diagonal dependence) — s1+1 values per tile,
// the corner riding the face message exactly as real stencil codes do.

// Config2D describes one 2-D run.
type Config2D struct {
	I1, I2   int64 // iteration space extents
	S1       int64 // tile side along dim 0 (local steps: ceil(I1/S1))
	Kernel   stencil.Kernel
	Boundary stencil.Boundary
	Mode     Mode
	// Checkpoint enables periodic snapshots and restart (see checkpoint.go).
	Checkpoint CheckpointConfig
}

// Local2D is one rank's strip after a run.
type Local2D struct {
	Rank    int
	Base2   int64 // first owned column
	Width   int64 // owned columns (the last rank's strip may be narrower)
	I1      int64
	Data    []float64 // (Width+1) columns × I1 rows; column −1 is the ghost
	useWest bool
}

func (l *Local2D) idx(i1, c int64) int64 { return (c+1)*l.I1 + i1 }

// At returns the value at row i1 of local column c (c = −1 is the ghost).
func (l *Local2D) At(i1, c int64) float64 { return l.Data[l.idx(i1, c)] }

func (l *Local2D) set(i1, c int64, v float64) { l.Data[l.idx(i1, c)] = v }

// Validate checks the configuration against the communicator size: ranks
// partition the I2 columns into ⌈I2/width⌉ strips of equal width (the last
// possibly narrower), so commSize must equal ⌈I2/S2⌉ for the implied S2 =
// ⌈I2/commSize⌉.
func (cfg Config2D) Validate(commSize int) error {
	if cfg.I1 <= 0 || cfg.I2 <= 0 {
		return fmt.Errorf("runner: non-positive space %dx%d", cfg.I1, cfg.I2)
	}
	if cfg.S1 <= 0 || cfg.S1 > cfg.I1 {
		return fmt.Errorf("runner: tile side S1=%d out of range (0,%d]", cfg.S1, cfg.I1)
	}
	if cfg.Kernel == nil {
		return fmt.Errorf("runner: nil kernel")
	}
	if cfg.Kernel.Deps().Dim() != 2 {
		return fmt.Errorf("runner: kernel %s is not 2-D", cfg.Kernel.Name())
	}
	for _, d := range cfg.Kernel.Deps().Vectors() {
		ok := d.Equal(ilmath.V(1, 0)) || d.Equal(ilmath.V(0, 1)) || d.Equal(ilmath.V(1, 1))
		if !ok {
			return fmt.Errorf("runner: unsupported 2-D dependence %v", d)
		}
	}
	if commSize <= 0 || int64(commSize) > cfg.I2 {
		return fmt.Errorf("runner: %d ranks for %d columns", commSize, cfg.I2)
	}
	if cfg.Mode != Blocking && cfg.Mode != Overlapped {
		return fmt.Errorf("runner: unknown mode %d", int(cfg.Mode))
	}
	return cfg.Checkpoint.validate()
}

// stripWidth returns the column strip geometry for a rank: a balanced
// partition (the first I2 mod size ranks get one extra column), which
// guarantees every rank at least one column whenever size ≤ I2 — a
// ceil-based split could leave trailing ranks empty and deadlock the
// barrier.
func (cfg Config2D) stripWidth(rank, size int) (base, width int64) {
	q := cfg.I2 / int64(size)
	r := cfg.I2 % int64(size)
	if int64(rank) < r {
		return int64(rank) * (q + 1), q + 1
	}
	return r*(q+1) + (int64(rank)-r)*q, q
}

// tiles1 returns the number of local steps (tiles along dim 0).
func (cfg Config2D) tiles1() int64 { return (cfg.I1 + cfg.S1 - 1) / cfg.S1 }

// tileRows returns [r0, r0+h) for local tile t.
func (cfg Config2D) tileRows(t int64) (r0, h int64) {
	r0 = t * cfg.S1
	h = cfg.S1
	if r0+h > cfg.I1 {
		h = cfg.I1 - r0
	}
	return r0, h
}

// Run2D executes the configured schedule; all ranks must call it with
// identical configurations.
func Run2D(c mp.Comm, cfg Config2D) (*Local2D, Stats, error) {
	if err := cfg.Validate(c.Size()); err != nil {
		return nil, Stats{}, err
	}
	if cfg.Boundary == nil {
		cfg.Boundary = stencil.ConstBoundary(1)
	}
	rank := c.Rank()
	base, width := cfg.stripWidth(rank, c.Size())
	if width <= 0 {
		return nil, Stats{}, fmt.Errorf("runner: rank %d owns no columns (too many ranks)", rank)
	}
	l := &Local2D{
		Rank:    rank,
		Base2:   base,
		Width:   width,
		I1:      cfg.I1,
		Data:    make([]float64, (width+1)*cfg.I1),
		useWest: rank > 0,
	}
	r := &run2d{cfg: cfg, c: c, l: l}
	if cfg.Checkpoint.Dir != "" {
		removeOrphanTemps(cfg.Checkpoint.Dir, rank)
	}
	// Agree on a restart tile before any compute: the AllReduce inside
	// restore2D doubles as the first synchronization point.
	var startTile int64
	if cfg.Checkpoint.Restore {
		info, err := restore2D(c, cfg, l)
		if err != nil {
			abortComm(c, err)
			return nil, Stats{}, fmt.Errorf("runner: rank %d restore: %w", rank, err)
		}
		r.stats.Restore = info
		startTile = info.StartTile
	}
	if err := c.Barrier(); err != nil {
		return nil, Stats{}, err
	}
	//tilevet:allow determinism -- Stats.Elapsed is the paper's measured wall-clock output; it never feeds the computed grid
	start := time.Now()
	var err error
	if cfg.Mode == Blocking {
		err = r.runBlocking(startTile)
	} else {
		err = r.runOverlapped(startTile)
	}
	if err != nil {
		abortComm(c, err)
		// Partial stats travel with the error: a supervisor accounting
		// wasted work wants to know how far this attempt got.
		return nil, r.stats, fmt.Errorf("runner: rank %d: %w", rank, err)
	}
	if err := c.Barrier(); err != nil {
		return nil, r.stats, err
	}
	r.stats.Elapsed = time.Since(start) //tilevet:allow determinism -- wall-clock measurement, reporting only
	return l, r.stats, nil
}

type run2d struct {
	cfg   Config2D
	c     mp.Comm
	l     *Local2D
	stats Stats
}

func (r *run2d) hasWest() bool { return r.l.Rank > 0 }
func (r *run2d) hasEast() bool {
	base, width := r.cfg.stripWidth(r.l.Rank, r.c.Size())
	return base+width < r.cfg.I2
}

// ghostLen is the message length for tile t: h rows plus one row above
// (for the diagonal dependence), clipped at the space's lower edge.
func (r *run2d) ghostLen(t int64) int64 {
	_, h := r.cfg.tileRows(t)
	return h + 1
}

// packEast packs this rank's rightmost column for consumer tile t: rows
// r0−1 … r0+h−1 (the r0−1 entry is the corner for the diagonal; at t = 0 it
// is filled with the boundary value since row −1 is outside the space).
func (r *run2d) packEast(t int64) []byte {
	r0, h := r.cfg.tileRows(t)
	buf := make([]byte, 8*(h+1))
	right := r.l.Width - 1
	if r0 == 0 {
		putF64(buf, r.cfg.Boundary(ilmath.V(-1, r.l.Base2+right)))
	} else {
		putF64(buf, r.l.At(r0-1, right))
	}
	for i := int64(0); i < h; i++ {
		putF64(buf[8*(i+1):], r.l.At(r0+i, right))
	}
	return buf
}

// unpackWest stores a received ghost column piece for tile t into the ghost
// column (rows r0−1 … r0+h−1; the r0−1 slot lives at ghost row r0−1, except
// for t = 0 where it is discarded in favor of the boundary).
func (r *run2d) unpackWest(buf []byte, t int64) {
	r0, h := r.cfg.tileRows(t)
	if r0 > 0 {
		r.l.set(r0-1, -1, getF64(buf))
	}
	for i := int64(0); i < h; i++ {
		r.l.set(r0+i, -1, getF64(buf[8*(i+1):]))
	}
}

func (r *run2d) computeTile(t int64) {
	r0, h := r.cfg.tileRows(t)
	l := r.l
	b := r.cfg.Boundary
	get := func(q ilmath.Vec) float64 {
		i1, c := q[0], q[1]-l.Base2
		if i1 < 0 || q[1] < 0 {
			return b(q)
		}
		if c == -1 {
			if r.hasWest() {
				return l.At(i1, -1)
			}
			return b(q)
		}
		return l.At(i1, c)
	}
	for i1 := r0; i1 < r0+h; i1++ {
		for c := int64(0); c < l.Width; c++ {
			j := ilmath.V(i1, l.Base2+c)
			l.set(i1, c, r.cfg.Kernel.Eval(j, get))
		}
	}
	r.stats.Tiles++
}

func (r *run2d) runBlocking(start int64) error {
	n := r.cfg.tiles1()
	for t := start; t < n; t++ {
		if r.hasWest() {
			buf := make([]byte, 8*r.ghostLen(t))
			if _, err := r.c.Recv(r.l.Rank-1, int(t), buf); err != nil {
				return err
			}
			r.unpackWest(buf, t)
			r.stats.MsgsRecvd++
		}
		r.computeTile(t)
		if r.hasEast() {
			buf := r.packEast(t)
			if err := r.c.Send(r.l.Rank+1, int(t), buf); err != nil {
				return err
			}
			r.stats.MsgsSent++
			r.stats.BytesSent += int64(len(buf))
		}
		if err := r.maybeCheckpoint(t); err != nil {
			return err
		}
	}
	return nil
}

func (r *run2d) runOverlapped(start int64) error {
	n := r.cfg.tiles1()
	type ghost struct {
		req mp.Request
		buf []byte
	}
	post := func(t int64) (*ghost, error) {
		if !r.hasWest() {
			return nil, nil
		}
		g := &ghost{buf: make([]byte, 8*r.ghostLen(t))}
		var err error
		g.req, err = r.c.Irecv(r.l.Rank-1, int(t), g.buf)
		return g, err
	}
	cur, err := post(start)
	if err != nil {
		return err
	}
	var sendReq mp.Request
	for t := start; t < n; t++ {
		// Send the results of tile t−1 (non-blocking). On a restored run
		// tile start−1's face was consumed by the neighbor before its
		// checkpoint, so the first send is tile start's face, next loop.
		if t > start && r.hasEast() {
			buf := r.packEast(t - 1)
			if sendReq, err = r.c.Isend(r.l.Rank+1, int(t-1), buf); err != nil {
				return err
			}
			r.stats.MsgsSent++
			r.stats.BytesSent += int64(len(buf))
		}
		// Post the receive for tile t+1.
		var next *ghost
		if t+1 < n {
			if next, err = post(t + 1); err != nil {
				return err
			}
		}
		// Wait for this tile's ghost and compute.
		if cur != nil {
			if _, err := cur.req.Wait(); err != nil {
				return err
			}
			r.unpackWest(cur.buf, t)
			r.stats.MsgsRecvd++
		}
		r.computeTile(t)
		if sendReq != nil {
			if _, err := sendReq.Wait(); err != nil {
				return err
			}
			sendReq = nil
		}
		if err := r.maybeCheckpoint(t); err != nil {
			return err
		}
		cur = next
	}
	// Epilogue: ship the last tile's results.
	if r.hasEast() {
		buf := r.packEast(n - 1)
		req, err := r.c.Isend(r.l.Rank+1, int(n-1), buf)
		if err != nil {
			return err
		}
		r.stats.MsgsSent++
		r.stats.BytesSent += int64(len(buf))
		if _, err := req.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// Gather2D assembles the full grid on rank 0 (others return nil).
func Gather2D(c mp.Comm, cfg Config2D, l *Local2D) (*stencil.Grid, error) {
	blockLen := int(8 * (1 + l.Width*l.I1)) // width header + data
	block := make([]byte, blockLen)
	putF64(block, float64(l.Width))
	o := 8
	for c2 := int64(0); c2 < l.Width; c2++ {
		for i1 := int64(0); i1 < l.I1; i1++ {
			putF64(block[o:], l.At(i1, c2))
			o += 8
		}
	}
	blocks, err := mp.GatherBytes(c, 0, block)
	if err != nil {
		return nil, err
	}
	if c.Rank() != 0 {
		return nil, nil
	}
	sp, err := space.Rect(cfg.I1, cfg.I2)
	if err != nil {
		return nil, err
	}
	out := stencil.NewGrid(sp)
	for rank, buf := range blocks {
		base, _ := cfg.stripWidth(rank, c.Size())
		width := int64(getF64(buf))
		o := 8
		for c2 := int64(0); c2 < width; c2++ {
			for i1 := int64(0); i1 < cfg.I1; i1++ {
				out.Set(ilmath.V(i1, base+c2), getF64(buf[o:]))
				o += 8
			}
		}
	}
	return out, nil
}

// VerifySequential2D compares a gathered grid against a sequential run.
func VerifySequential2D(g *stencil.Grid, cfg Config2D) (float64, error) {
	sp, err := space.Rect(cfg.I1, cfg.I2)
	if err != nil {
		return 0, err
	}
	ref, err := stencil.RunSequential(sp, cfg.Kernel, cfg.Boundary)
	if err != nil {
		return 0, err
	}
	return stencil.MaxAbsDiff(g, ref)
}

// putF64 and getF64 are the single-value forms of putF64s/getF64s, which
// the 2-D executor's faces and gather are written in.
func putF64(b []byte, v float64) { binary.BigEndian.PutUint64(b, math.Float64bits(v)) }

func getF64(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b)) }
