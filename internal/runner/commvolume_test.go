package runner

import (
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/stencil"
	"repro/internal/tiling"
)

// TestMeasuredTrafficMatchesTileDepVolumes2D closes the loop between the
// tiling theory and the real executor: the bytes the 2-D runner actually
// ships per tile must equal the exact per-direction transfer volumes
// computed by tiling.TileDepVolumes (s1 face points toward (0,1) plus the
// single corner point toward (1,1), shipped together).
func TestMeasuredTrafficMatchesTileDepVolumes2D(t *testing.T) {
	const (
		i1, i2 = 120, 60
		s1     = 10
		ranks  = 6 // strips of 10 columns
	)
	cfg := Config2D{I1: i1, I2: i2, S1: s1, Kernel: stencil.Sum2D{}, Mode: Overlapped}

	// Theory: exact per-tile transfer volume across the strip boundary.
	tl, err := tiling.Rectangular(s1, i2/ranks)
	if err != nil {
		t.Fatal(err)
	}
	vols, err := tl.TileDepVolumes(stencil.Sum2D{}.Deps())
	if err != nil {
		t.Fatal(err)
	}
	var crossPoints int64 // points crossing dim-1 boundaries (mapping is along dim 0)
	for _, v := range vols {
		if v.Dir[1] != 0 {
			crossPoints += v.Points
		}
	}
	if crossPoints != s1+1 {
		t.Fatalf("theory: cross volume = %d points/tile, want %d", crossPoints, s1+1)
	}

	// Practice: run with instrumented comms and compare.
	tilesPerRank := int64(i1 / s1)
	snaps := measuredTraffic(t, ranks, func(c mp.Comm) (Stats, error) {
		_, st, err := Run2D(c, cfg)
		return st, err
	})
	wantBytes := tilesPerRank * crossPoints * 8
	for r := 0; r < ranks-1; r++ { // every rank but the last sends east
		if snaps[r].SendBytes != wantBytes {
			t.Errorf("rank %d sent %d bytes, theory predicts %d", r, snaps[r].SendBytes, wantBytes)
		}
		if snaps[r].SendMsgs != tilesPerRank {
			t.Errorf("rank %d sent %d msgs, want %d", r, snaps[r].SendMsgs, tilesPerRank)
		}
	}
	if snaps[ranks-1].SendBytes != 0 {
		t.Errorf("last rank sent %d bytes, want 0", snaps[ranks-1].SendBytes)
	}
	for r := 1; r < ranks; r++ {
		if snaps[r].RecvBytes != wantBytes {
			t.Errorf("rank %d received %d bytes, theory predicts %d", r, snaps[r].RecvBytes, wantBytes)
		}
	}
}

// TestMeasuredTrafficMatchesFaceVolumes3D does the same for the 3-D grid
// executor: per tile, an interior rank ships exactly the two faces the
// row-communication volumes predict.
func TestMeasuredTrafficMatchesFaceVolumes3D(t *testing.T) {
	cfg := Config{
		Grid:   model.Grid3D{I: 12, J: 12, K: 64, PI: 3, PJ: 3},
		V:      8, // divides K: all tiles full, so per-tile volumes are uniform
		Kernel: stencil.Sqrt3D{},
		Mode:   Overlapped,
	}
	tl, err := tiling.Rectangular(cfg.Grid.TileI(), cfg.Grid.TileJ(), cfg.V)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tl.RowCommVolume(stencil.Sqrt3D{}.Deps())
	if err != nil {
		t.Fatal(err)
	}
	// Mapping along k (dim 2): faces crossing dims 0 and 1 are messages.
	perTilePoints := rows[0] + rows[1]
	kTiles := cfg.Grid.KTiles(cfg.V)

	snaps := measuredTraffic(t, int(cfg.Grid.PI*cfg.Grid.PJ), func(c mp.Comm) (Stats, error) {
		_, st, err := Run(c, cfg)
		return st, err
	})
	// Rank 0 (corner, sends east and south): exactly the two faces.
	want := kTiles * perTilePoints * 8
	if snaps[0].SendBytes != want {
		t.Errorf("rank 0 sent %d bytes, RowCommVolume predicts %d", snaps[0].SendBytes, want)
	}
	// The interior-most rank both sends and receives two faces per tile.
	interior := int(1*cfg.Grid.PJ + 1) // rank (1,1)
	if snaps[interior].SendBytes != want || snaps[interior].RecvBytes != want {
		t.Errorf("interior rank traffic %d/%d bytes, want %d each",
			snaps[interior].SendBytes, snaps[interior].RecvBytes, want)
	}
}

// measuredTraffic runs run on n in-process ranks, each wrapped by
// obs.InstrumentComm, and returns the per-rank traffic the transport saw.
// It also checks that traffic against the executor's own Stats: the tile
// loop's face messages are the only point-to-point messages of a run
// without restore (the barriers are not messages), so the two tallies must
// agree, sent and received, and the received ones peer by peer.
func measuredTraffic(t *testing.T, n int, run func(mp.Comm) (Stats, error)) []obs.CommSnapshot {
	t.Helper()
	snaps := make([]obs.CommSnapshot, n)
	stats := make([]Stats, n)
	var mu sync.Mutex
	err := mp.Launch(n, func(raw mp.Comm) error {
		m := obs.NewCommMetrics(raw.Rank(), n)
		st, err := run(obs.InstrumentComm(raw, m))
		mu.Lock()
		snaps[raw.Rank()], stats[raw.Rank()] = m.Snapshot(), st
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range snaps {
		if s.SendMsgs != int64(stats[r].MsgsSent) || s.SendBytes != stats[r].BytesSent {
			t.Errorf("rank %d: transport saw %d msgs / %d bytes sent, executor counted %d / %d",
				r, s.SendMsgs, s.SendBytes, stats[r].MsgsSent, stats[r].BytesSent)
		}
		var perPeer int64
		for _, p := range s.Peers {
			perPeer += p.RecvMsgs
		}
		if s.RecvMsgs != int64(stats[r].MsgsRecvd) || perPeer != s.RecvMsgs {
			t.Errorf("rank %d: transport saw %d msgs received (%d over its peers), executor counted %d",
				r, s.RecvMsgs, perPeer, stats[r].MsgsRecvd)
		}
	}
	return snaps
}
