package runner

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/mp"
)

// Checkpoint/restart for the tile executor, either shape.
//
// Every rank snapshots its full tile-frontier state — the local block
// including its ghost layers, plus the index of the next tile to execute —
// at deterministic tile boundaries (after tile t whenever (t+1) is a
// multiple of Every). All generations are kept, so after a crash the ranks
// can agree on the highest boundary every one of them reached: restore
// takes an AllReduce(min) over the per-rank latest valid snapshot and each
// rank reloads its file at exactly that tile. A rank with no (or only
// corrupt) snapshots reports 0, which forces a fresh start for everyone —
// the protocol never resumes from an inconsistent frontier.
//
// File layout, version 2 (all integers big-endian; version 1 described the
// 2-D strip only and is rejected as unsupported, which restore treats like
// any other unusable generation):
//
//	offset  size  field
//	0       4     magic "TLCP"
//	4       4     version
//	8       4     CRC-32 (IEEE) over bytes [12, EOF)
//	12      4     rank
//	16      4     comm size
//	20      4     kernel dimension (2 or 3)
//	24      3×8   space extents along local i, j, k
//	48      8     tile height
//	56      2×8   BaseI, BaseJ
//	72      2×8   TI, TJ
//	88      8     next tile index
//	96      8     payload length (must be 8×len(Local.Data))
//	104     —     payload: Local.Data as big-endian float64
//
// Files are written to a temporary name and renamed into place, so a crash
// mid-write can never leave a truncated file under a valid checkpoint name;
// the CRC catches every other corruption.

const (
	ckMagic   = "TLCP"
	ckVersion = 2
	ckHdrLen  = 104
)

// ckHeader is the first ckHdrLen bytes of a snapshot: after the framing, what
// must match the run for the payload to mean anything, and where the run stood.
type ckHeader struct {
	Magic        [4]byte
	Version, CRC uint32
	Rank, Size   int32
	Dim          int32
	Space        [3]int64
	V            int64
	BaseI, BaseJ int64
	TI, TJ       int64
	NextTile     int64
	PayloadLen   int64
}

func (r *run) ckHeader(nextTile int64) ckHeader {
	p, l := r.p, r.l
	return ckHeader{
		Magic: [4]byte([]byte(ckMagic)), Version: ckVersion,
		Rank: int32(l.Rank), Size: int32(r.c.Size()), Dim: int32(len(p.axis)),
		Space: p.space, V: p.v,
		BaseI: l.BaseI, BaseJ: l.BaseJ, TI: l.TI, TJ: l.TJ,
		NextTile: nextTile, PayloadLen: int64(8 * len(l.Data)),
	}
}

// CheckpointConfig enables periodic snapshots and restart for Run and Run2D.
type CheckpointConfig struct {
	// Dir is the directory checkpoint files are written to (shared or
	// per-rank; file names embed the rank). Empty disables checkpointing.
	Dir string
	// Every checkpoints after every Every-th tile. Zero disables.
	Every int64
	// Restore makes the run resume from the latest snapshot boundary all
	// ranks reached, falling back to a fresh start when there is none.
	Restore bool
}

func (cc CheckpointConfig) enabled() bool { return cc.Dir != "" && cc.Every > 0 }

func (cc CheckpointConfig) validate() error {
	if cc.Every < 0 {
		return fmt.Errorf("runner: negative checkpoint interval %d", cc.Every)
	}
	if (cc.Every > 0 || cc.Restore) && cc.Dir == "" {
		return fmt.Errorf("runner: checkpointing requested without a directory")
	}
	return nil
}

var errTimedCheckpoint = errors.New("runner: a timed run keeps a ring of tiles, not the grid, so it cannot checkpoint or restore (use Run)")

// timeable refuses, for Time and Time2D, any checkpointing: a ring cannot
// be snapshotted into a restorable grid.
func (cc CheckpointConfig) timeable() error {
	if cc.Dir != "" || cc.Restore {
		return errTimedCheckpoint
	}
	return nil
}

// RestoreReason classifies how a restore-enabled run chose its start tile.
type RestoreReason int

const (
	// restoreNotRequested, the zero value: the run started without
	// Checkpoint.Restore.
	restoreNotRequested RestoreReason = iota
	// RestoreResumed: the run resumed from an agreed checkpoint boundary.
	RestoreResumed
	// RestoreFreshNoSnapshot: this rank had no snapshot files at all.
	RestoreFreshNoSnapshot
	// RestoreFreshAllCorrupt: snapshot files existed but every generation
	// failed to load (CRC, geometry or truncation) — from-scratch fallback.
	RestoreFreshAllCorrupt
	// RestoreFreshPeerBehind: this rank had a usable snapshot but some peer
	// proposed tile 0, so the AllReduce(min) forced a fresh start.
	RestoreFreshPeerBehind
)

var restoreReasonNames = [...]string{"not-requested", "resumed", "fresh-no-snapshot", "fresh-all-corrupt", "fresh-peer-behind"}

func (r RestoreReason) String() string {
	if r >= 0 && int(r) < len(restoreReasonNames) {
		return restoreReasonNames[r]
	}
	return fmt.Sprintf("RestoreReason(%d)", int(r))
}

// RestoreInfo reports how a restore-enabled run started; returned inside
// Stats so a supervisor can account recovery cost without re-scanning disk.
type RestoreInfo struct {
	// Requested mirrors CheckpointConfig.Restore.
	Requested bool
	// Reason classifies the outcome; a fresh fallback is an outcome, not an
	// error — only divergence (an agreed generation this rank cannot load)
	// fails the run.
	Reason RestoreReason
	// StartTile is the first tile executed (0 = from scratch).
	StartTile int64
	// WastedTiles is the provable recomputation this restart causes for
	// this rank: tiles it had already executed — witnessed by its own
	// newest valid snapshot — at or beyond the agreed start. The true loss
	// (progress past the last snapshot) is unknowable after a crash; this
	// is the deterministic lower bound.
	WastedTiles int64
}

// CheckpointFile returns the snapshot path for a rank at a tile boundary
// (nextTile is the first tile NOT yet executed).
func CheckpointFile(dir string, rank int, nextTile int64) string {
	return filepath.Join(dir, fmt.Sprintf("ck-r%04d-t%08d.bin", rank, nextTile))
}

// checkpointTiles lists the boundaries rank has files for under CheckpointFile's
// name plus suffix ("" for snapshots, ".tmp" for writes that never finished),
// ascending. Existence only — validity is the loader's business.
func checkpointTiles(dir string, rank int, suffix string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var tiles []int64
	for _, e := range entries {
		// Sscanf reports success on the two integers even when the literal
		// tail mismatches, so the name is rebuilt and compared.
		var r int
		var t int64
		if n, _ := fmt.Sscanf(e.Name(), "ck-r%04d-t%08d", &r, &t); n == 2 && r == rank &&
			e.Name() == filepath.Base(CheckpointFile(dir, rank, t))+suffix {
			tiles = append(tiles, t)
		}
	}
	sort.Slice(tiles, func(i, j int) bool { return tiles[i] < tiles[j] })
	return tiles, nil
}

// LatestCheckpoint reports the newest snapshot boundary present on disk for
// a rank (0 when there is none yet). It checks names only, not contents —
// cheap enough for a launcher to poll.
func LatestCheckpoint(dir string, rank int) (nextTile int64, path string, err error) {
	tiles, err := checkpointTiles(dir, rank, "")
	if err != nil || len(tiles) == 0 {
		return 0, "", err
	}
	t := tiles[len(tiles)-1]
	return t, CheckpointFile(dir, rank, t), nil
}

// writeCheckpoint snapshots r.l atomically (temp file + rename). Every
// snapshot of a run is the same size, so one buffer serves them all.
func (r *run) writeCheckpoint(nextTile int64) (int64, error) {
	dir, l := r.p.checkpoint.Dir, r.l
	var hdr bytes.Buffer
	if err := binary.Write(&hdr, binary.BigEndian, r.ckHeader(nextTile)); err != nil { // CRC filled in below
		return 0, err
	}
	if r.ckBuf == nil {
		r.ckBuf = make([]byte, ckHdrLen+8*len(l.Data))
	}
	buf := r.ckBuf
	copy(buf, hdr.Bytes())
	putF64s(buf[ckHdrLen:], l.Data)
	binary.BigEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(buf[12:]))

	path := CheckpointFile(dir, l.Rank, nextTile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("runner: checkpoint create: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("runner: checkpoint write: %w", err)
	}
	// The snapshot is a crash artifact by definition: its durability must
	// not depend on the crash timing, so the data is synced before the
	// rename and the directory after — otherwise a power cut could leave a
	// valid-looking name pointing at unwritten blocks.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("runner: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("runner: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("runner: checkpoint rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, fmt.Errorf("runner: checkpoint dir sync: %w", err)
	}
	return int64(len(buf)), nil
}

// syncDir fsyncs a directory so a just-completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// removeOrphanTemps deletes this rank's leftover checkpoint temp files: a
// crash between create and rename leaks one `.tmp` per attempt, and since
// the temp name is derived from the target, retries at the same boundary
// truncate it but differing boundaries accumulate forever. Called at run
// start, when any temp bearing this rank's name is provably dead.
func removeOrphanTemps(dir string, rank int) {
	tiles, _ := checkpointTiles(dir, rank, ".tmp")
	for _, t := range tiles {
		os.Remove(CheckpointFile(dir, rank, t) + ".tmp")
	}
}

// loadCheckpoint validates the snapshot at path against the run's geometry
// and fills r.l.Data from it, returning the stored next-tile index.
func (r *run) loadCheckpoint(path string) (int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var h ckHeader
	if err := binary.Read(bytes.NewReader(buf), binary.BigEndian, &h); err != nil {
		return 0, fmt.Errorf("runner: checkpoint %s: truncated header (%d bytes)", path, len(buf))
	}
	if string(h.Magic[:]) != ckMagic {
		return 0, fmt.Errorf("runner: checkpoint %s: bad magic %q", path, h.Magic)
	}
	if h.Version != ckVersion {
		return 0, fmt.Errorf("runner: checkpoint %s: unsupported version %d", path, h.Version)
	}
	if got := crc32.ChecksumIEEE(buf[12:]); got != h.CRC {
		return 0, fmt.Errorf("runner: checkpoint %s: CRC mismatch (file %08x, computed %08x)", path, h.CRC, got)
	}
	want := r.ckHeader(h.NextTile)
	want.CRC = h.CRC
	if h != want {
		return 0, fmt.Errorf("runner: checkpoint %s: geometry mismatch (file %+v, run %+v)", path, h, want)
	}
	if h.NextTile <= 0 || h.NextTile > r.tiles {
		return 0, fmt.Errorf("runner: checkpoint %s: next tile %d out of range", path, h.NextTile)
	}
	if int64(len(buf)) != ckHdrLen+h.PayloadLen {
		return 0, fmt.Errorf("runner: checkpoint %s: %d payload bytes, header says %d", path, len(buf)-ckHdrLen, h.PayloadLen)
	}
	getF64s(r.l.Data, buf[ckHdrLen:])
	return h.NextTile, nil
}

// latestValid returns the newest snapshot boundary whose file actually
// loads and matches the run's geometry (0 when none does) plus the typed
// reason for a zero answer. A corrupt generation is skipped in favor of an
// older one; r.l is left holding the winning snapshot's data (or untouched
// when there is none).
func (r *run) latestValid() (int64, RestoreReason) {
	dir, rank := r.p.checkpoint.Dir, r.l.Rank
	tiles, err := checkpointTiles(dir, rank, "")
	if err != nil || len(tiles) == 0 {
		return 0, RestoreFreshNoSnapshot
	}
	for i := len(tiles) - 1; i >= 0; i-- {
		t, err := r.loadCheckpoint(CheckpointFile(dir, rank, tiles[i]))
		if err == nil {
			return t, RestoreResumed
		}
	}
	return 0, RestoreFreshAllCorrupt
}

// restore agrees on a global restart tile: every rank proposes its latest
// valid snapshot boundary and the minimum wins, so the frontier is one
// every rank can actually resume from. A fresh start (no snapshot, all
// generations corrupt, or a peer with nothing) is a typed outcome, not an
// error; only divergence — an agreed generation this rank cannot load — is.
// On return r.l holds the agreed snapshot's data (zeroed on a fresh start).
func (r *run) restore() (RestoreInfo, error) {
	info := RestoreInfo{Requested: true}
	mine, reason := r.latestValid()
	agreed, err := mp.AllReduce(r.c, []float64{float64(mine)}, mp.OpMin)
	if err != nil {
		return info, err
	}
	start := int64(agreed[0])
	if start <= 0 {
		// Someone has nothing to resume from: fresh start. Discard any
		// snapshot latestValid left in r.l. Everything this rank had proven
		// done is recomputed from tile 0.
		if mine > 0 {
			clear(r.l.Data)
			reason = RestoreFreshPeerBehind
			info.WastedTiles = mine
		}
		info.Reason = reason
		return info, nil
	}
	info.Reason = RestoreResumed
	info.StartTile = start
	info.WastedTiles = mine - start
	if start == mine {
		return info, nil
	}
	// Roll back to the agreed (older) generation; it must load cleanly.
	if _, err := r.loadCheckpoint(CheckpointFile(r.p.checkpoint.Dir, r.l.Rank, start)); err != nil {
		return info, fmt.Errorf("runner: rank %d cannot load agreed checkpoint at tile %d: %w", r.l.Rank, start, err)
	}
	return info, nil
}

// maybeCheckpoint snapshots after tile t when t+1 lands on a configured
// boundary (and the run is not already over).
func (r *run) maybeCheckpoint(t int64) error {
	cc := r.p.checkpoint
	if !cc.enabled() || (t+1)%cc.Every != 0 || t+1 >= r.tiles {
		return nil
	}
	n, err := r.writeCheckpoint(t + 1)
	if err != nil {
		return err
	}
	r.stats.Checkpoints++
	r.stats.CheckpointBytes += n
	return nil
}

// abortComm escalates a mid-run failure to a world abort so peers blocked
// on this rank unwind promptly instead of waiting out their deadlines. An
// error that already came from the failure machinery (the world is aborted
// or closed) needs no escalation.
func abortComm(c mp.Comm, err error) {
	if err == nil || errors.Is(err, mp.ErrAborted) || errors.Is(err, mp.ErrClosed) {
		return
	}
	_ = c.Abort(err)
}
