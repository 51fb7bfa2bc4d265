package runner

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/mp"
)

// Checkpoint/restart for the 2-D executor.
//
// Every rank snapshots its full tile-frontier state — the local block
// including the ghost column, plus the index of the next tile to execute —
// at deterministic tile boundaries (after tile t whenever (t+1) is a
// multiple of Every). All generations are kept, so after a crash the ranks
// can agree on the highest boundary every one of them reached: restore
// takes an AllReduce(min) over the per-rank latest valid snapshot and each
// rank reloads its file at exactly that tile. A rank with no (or only
// corrupt) snapshots reports 0, which forces a fresh start for everyone —
// the protocol never resumes from an inconsistent frontier.
//
// File layout (all integers big-endian):
//
//	offset  size  field
//	0       4     magic "TLCP"
//	4       4     version (currently 1)
//	8       4     CRC-32 (IEEE) over bytes [12, EOF)
//	12      4     rank
//	16      4     comm size
//	20      8     I1
//	28      8     I2
//	36      8     S1
//	44      8     Base2
//	52      8     Width
//	60      8     next tile index
//	68      8     payload length (must be 8×(Width+1)×I1)
//	76      —     payload: Local2D.Data as big-endian float64
//
// Files are written to a temporary name and renamed into place, so a crash
// mid-write can never leave a truncated file under a valid checkpoint name;
// the CRC catches every other corruption.

const (
	ckMagic   = "TLCP"
	ckVersion = 1
	ckHdrLen  = 76
)

// CheckpointConfig enables periodic snapshots and restart for Run2D.
type CheckpointConfig struct {
	// Dir is the directory checkpoint files are written to (shared or
	// per-rank; file names embed the rank). Empty disables checkpointing.
	Dir string
	// Every checkpoints after every Every-th tile. Zero disables.
	Every int64
	// Restore makes Run2D resume from the latest snapshot boundary all
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

// RestoreReason classifies how a restore-enabled run chose its start tile.
type RestoreReason int

const (
	// RestoreNotRequested: the run started without Checkpoint.Restore.
	RestoreNotRequested RestoreReason = iota
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

func (r RestoreReason) String() string {
	switch r {
	case RestoreNotRequested:
		return "not-requested"
	case RestoreResumed:
		return "resumed"
	case RestoreFreshNoSnapshot:
		return "fresh-no-snapshot"
	case RestoreFreshAllCorrupt:
		return "fresh-all-corrupt"
	case RestoreFreshPeerBehind:
		return "fresh-peer-behind"
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

// checkpointTiles lists the boundaries rank has snapshot files for,
// ascending. Existence only — validity is the loader's business.
func checkpointTiles(dir string, rank int) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var tiles []int64
	for _, e := range entries {
		var r int
		var t int64
		if n, _ := fmt.Sscanf(e.Name(), "ck-r%04d-t%08d.bin", &r, &t); n == 2 && r == rank {
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
	tiles, err := checkpointTiles(dir, rank)
	if err != nil || len(tiles) == 0 {
		return 0, "", err
	}
	t := tiles[len(tiles)-1]
	return t, CheckpointFile(dir, rank, t), nil
}

// writeCheckpoint snapshots l atomically (temp file + rename).
func writeCheckpoint(dir string, commSize int, cfg Config2D, l *Local2D, nextTile int64) (int64, error) {
	payloadLen := int64(8 * len(l.Data))
	buf := make([]byte, ckHdrLen+payloadLen)
	copy(buf[0:4], ckMagic)
	binary.BigEndian.PutUint32(buf[4:8], ckVersion)
	binary.BigEndian.PutUint32(buf[12:16], uint32(int32(l.Rank)))
	binary.BigEndian.PutUint32(buf[16:20], uint32(int32(commSize)))
	binary.BigEndian.PutUint64(buf[20:28], uint64(cfg.I1))
	binary.BigEndian.PutUint64(buf[28:36], uint64(cfg.I2))
	binary.BigEndian.PutUint64(buf[36:44], uint64(cfg.S1))
	binary.BigEndian.PutUint64(buf[44:52], uint64(l.Base2))
	binary.BigEndian.PutUint64(buf[52:60], uint64(l.Width))
	binary.BigEndian.PutUint64(buf[60:68], uint64(nextTile))
	binary.BigEndian.PutUint64(buf[68:76], uint64(payloadLen))
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
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		// Sscanf reports success on the two integers even when the literal
		// tail mismatches, so the .tmp suffix must be checked separately —
		// otherwise finished checkpoints would match too.
		if !strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		var r int
		var t int64
		if n, _ := fmt.Sscanf(e.Name(), "ck-r%04d-t%08d.bin.tmp", &r, &t); n == 2 && r == rank {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// loadCheckpoint validates the snapshot at path against the run's geometry
// and fills l.Data from it, returning the stored next-tile index.
func loadCheckpoint(path string, commSize int, cfg Config2D, l *Local2D) (int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(buf) < ckHdrLen {
		return 0, fmt.Errorf("runner: checkpoint %s: truncated header (%d bytes)", path, len(buf))
	}
	if string(buf[0:4]) != ckMagic {
		return 0, fmt.Errorf("runner: checkpoint %s: bad magic %q", path, buf[0:4])
	}
	if v := binary.BigEndian.Uint32(buf[4:8]); v != ckVersion {
		return 0, fmt.Errorf("runner: checkpoint %s: unsupported version %d", path, v)
	}
	if got, want := crc32.ChecksumIEEE(buf[12:]), binary.BigEndian.Uint32(buf[8:12]); got != want {
		return 0, fmt.Errorf("runner: checkpoint %s: CRC mismatch (file %08x, computed %08x)", path, want, got)
	}
	rank := int(int32(binary.BigEndian.Uint32(buf[12:16])))
	size := int(int32(binary.BigEndian.Uint32(buf[16:20])))
	i1 := int64(binary.BigEndian.Uint64(buf[20:28]))
	i2 := int64(binary.BigEndian.Uint64(buf[28:36]))
	s1 := int64(binary.BigEndian.Uint64(buf[36:44]))
	base2 := int64(binary.BigEndian.Uint64(buf[44:52]))
	width := int64(binary.BigEndian.Uint64(buf[52:60]))
	nextTile := int64(binary.BigEndian.Uint64(buf[60:68]))
	payloadLen := int64(binary.BigEndian.Uint64(buf[68:76]))
	if rank != l.Rank || size != commSize ||
		i1 != cfg.I1 || i2 != cfg.I2 || s1 != cfg.S1 ||
		base2 != l.Base2 || width != l.Width {
		return 0, fmt.Errorf("runner: checkpoint %s: geometry mismatch (rank %d/%d size %d space %dx%d s1 %d strip %d+%d)",
			path, rank, l.Rank, size, i1, i2, s1, base2, width)
	}
	if nextTile <= 0 || nextTile > cfg.tiles1() {
		return 0, fmt.Errorf("runner: checkpoint %s: next tile %d out of range", path, nextTile)
	}
	if payloadLen != int64(8*len(l.Data)) || int64(len(buf)) != ckHdrLen+payloadLen {
		return 0, fmt.Errorf("runner: checkpoint %s: payload length %d, want %d", path, payloadLen, 8*len(l.Data))
	}
	getF64s(l.Data, buf[ckHdrLen:])
	return nextTile, nil
}

// latestValid returns the newest snapshot boundary whose file actually
// loads and matches the run's geometry (0 when none does) plus the typed
// reason for a zero answer. A corrupt generation is skipped in favor of an
// older one; l is left holding the winning snapshot's data (or untouched
// when there is none).
func latestValid(dir string, commSize int, cfg Config2D, l *Local2D) (int64, RestoreReason) {
	tiles, err := checkpointTiles(dir, l.Rank)
	if err != nil || len(tiles) == 0 {
		return 0, RestoreFreshNoSnapshot
	}
	for i := len(tiles) - 1; i >= 0; i-- {
		t, err := loadCheckpoint(CheckpointFile(dir, l.Rank, tiles[i]), commSize, cfg, l)
		if err == nil {
			return t, RestoreResumed
		}
	}
	return 0, RestoreFreshAllCorrupt
}

// restore2D agrees on a global restart tile: every rank proposes its latest
// valid snapshot boundary and the minimum wins, so the frontier is one
// every rank can actually resume from. A fresh start (no snapshot, all
// generations corrupt, or a peer with nothing) is a typed outcome, not an
// error; only divergence — an agreed generation this rank cannot load — is.
// On return l holds the agreed snapshot's data (zeroed on a fresh start).
func restore2D(c mp.Comm, cfg Config2D, l *Local2D) (RestoreInfo, error) {
	info := RestoreInfo{Requested: true}
	mine, reason := latestValid(cfg.Checkpoint.Dir, c.Size(), cfg, l)
	agreed, err := mp.AllReduce(c, []float64{float64(mine)}, mp.OpMin)
	if err != nil {
		return info, err
	}
	start := int64(agreed[0])
	if start <= 0 {
		// Someone has nothing to resume from: fresh start. Discard any
		// snapshot latestValid left in l. Everything this rank had proven
		// done is recomputed from tile 0.
		if mine > 0 {
			for i := range l.Data {
				l.Data[i] = 0
			}
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
	if _, err := loadCheckpoint(CheckpointFile(cfg.Checkpoint.Dir, l.Rank, start), c.Size(), cfg, l); err != nil {
		return info, fmt.Errorf("runner: rank %d cannot load agreed checkpoint at tile %d: %w", l.Rank, start, err)
	}
	return info, nil
}

// maybeCheckpoint snapshots after tile t when t+1 lands on a configured
// boundary (and the run is not already over).
func (r *run2d) maybeCheckpoint(t int64) error {
	cc := r.cfg.Checkpoint
	if !cc.enabled() || (t+1)%cc.Every != 0 || t+1 >= r.cfg.tiles1() {
		return nil
	}
	n, err := writeCheckpoint(cc.Dir, r.c.Size(), r.cfg, r.l, t+1)
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
