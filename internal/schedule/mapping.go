package schedule

import (
	"fmt"

	"repro/internal/ilmath"
	"repro/internal/space"
)

// Mapping assigns tiles to processors: all tiles along dimension MapDim of
// the tiled space execute on the same processor (Section 3 for the
// non-overlapping case; Section 4 chooses MapDim as the *largest* dimension,
// per the UET-UCT space-optimality result of Andronikos et al.).
//
// A processor is identified by the tile coordinates with the mapping
// dimension removed; ProcSpace is the resulting (n−1)-dimensional space
// (or a single-point 1-D space when the tiled space itself is 1-D).
type Mapping struct {
	MapDim    int
	TileSpace *space.Space
	ProcSpace *space.Space
}

// NewMapping builds a processor mapping for the given tiled space along
// dimension mapDim.
func NewMapping(ts *space.Space, mapDim int) (*Mapping, error) {
	if mapDim < 0 || mapDim >= ts.Dim() {
		return nil, fmt.Errorf("schedule: mapDim %d out of range [0,%d)", mapDim, ts.Dim())
	}
	ps, err := projectOut(ts, mapDim)
	if err != nil {
		return nil, err
	}
	return &Mapping{MapDim: mapDim, TileSpace: ts, ProcSpace: ps}, nil
}

// projectOut removes dimension d from a space. Projecting a 1-D space yields
// the single-point space [0..0], i.e. one processor.
func projectOut(s *space.Space, d int) (*space.Space, error) {
	if s.Dim() == 1 {
		return space.MustRect(1), nil
	}
	lo := make(ilmath.Vec, 0, s.Dim()-1)
	up := make(ilmath.Vec, 0, s.Dim()-1)
	for i := 0; i < s.Dim(); i++ {
		if i == d {
			continue
		}
		lo = append(lo, s.Lower[i])
		up = append(up, s.Upper[i])
	}
	return space.New(lo, up)
}

// NumProcs returns the number of processors used.
func (m *Mapping) NumProcs() int64 { return m.ProcSpace.Volume() }

// TilesPerProc returns the number of tiles each processor executes (the
// extent of the mapping dimension).
func (m *Mapping) TilesPerProc() int64 { return m.TileSpace.Extent(m.MapDim) }

// String summarizes the mapping.
func (m *Mapping) String() string {
	return fmt.Sprintf("map dim %d: %d procs × %d tiles", m.MapDim, m.NumProcs(), m.TilesPerProc())
}
