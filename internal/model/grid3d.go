package model

import "fmt"

// Grid3D describes the paper's Section 5 experimental setup: an I×J×K
// iteration space of the 3-D stencil, executed on a PI×PJ processor grid.
// The k axis is the largest dimension, so all tiles along k map to the same
// processor; tiles have shape (I/PI)×(J/PJ)×V where V is the tile height.
type Grid3D struct {
	I, J, K int64 // iteration space extents
	PI, PJ  int64 // processor grid extents
}

// Validate checks the configuration: the processor grid must evenly divide
// the i and j extents (the paper always uses 4×4 over 16×16 or 32×32).
func (c Grid3D) Validate() error {
	if c.I <= 0 || c.J <= 0 || c.K <= 0 || c.PI <= 0 || c.PJ <= 0 {
		return fmt.Errorf("model: non-positive Grid3D extent %+v", c)
	}
	if c.I%c.PI != 0 || c.J%c.PJ != 0 {
		return fmt.Errorf("model: processor grid %dx%d does not divide space %dx%d", c.PI, c.PJ, c.I, c.J)
	}
	return nil
}

// TileI and TileJ return the tile footprint in the i and j dimensions.
func (c Grid3D) TileI() int64 { return c.I / c.PI }

// TileJ returns the tile side along j.
func (c Grid3D) TileJ() int64 { return c.J / c.PJ }

// KTiles returns the number of tiles along the k axis for tile height v
// (the last tile may be partial).
func (c Grid3D) KTiles(v int64) int64 { return (c.K + v - 1) / v }

// TileVolume returns g = (I/PI)·(J/PJ)·v.
func (c Grid3D) TileVolume(v int64) int64 { return c.TileI() * c.TileJ() * v }

// FaceBytesI returns the size in bytes of the message crossing an i-boundary
// (a j×k tile face of one tile: TileJ·v elements).
func (c Grid3D) FaceBytesI(v, bytesPerElem int64) int64 { return c.TileJ() * v * bytesPerElem }

// FaceBytesJ returns the size in bytes of the message crossing a j-boundary.
func (c Grid3D) FaceBytesJ(v, bytesPerElem int64) int64 { return c.TileI() * v * bytesPerElem }

// InteriorStep returns the StepShape of an interior processor (two sends,
// two receives — one per grid neighbor direction) for tile height v.
func (c Grid3D) InteriorStep(v int64, m Machine) StepShape {
	bi := c.FaceBytesI(v, m.BytesPerElem)
	bj := c.FaceBytesJ(v, m.BytesPerElem)
	return StepShape{
		ComputePoints: c.TileVolume(v),
		SendBytes:     []int64{bi, bj},
		RecvBytes:     []int64{bi, bj},
	}
}

// PNonOverlap returns the exact schedule length of the non-overlapping
// schedule Π = (1,1,1) on the (PI)×(PJ)×KTiles tile space:
// (PI−1) + (PJ−1) + (KTiles−1) + 1.
func (c Grid3D) PNonOverlap(v int64) int64 {
	return (c.PI - 1) + (c.PJ - 1) + (c.KTiles(v) - 1) + 1
}

// POverlap returns the exact schedule length of the overlapping schedule
// Π = (2,2,1) with mapping along k: 2(PI−1) + 2(PJ−1) + (KTiles−1) + 1.
func (c Grid3D) POverlap(v int64) int64 {
	return 2*(c.PI-1) + 2*(c.PJ-1) + (c.KTiles(v) - 1) + 1
}

// PPaperOverlap returns the paper's Section 5 approximation of the
// overlapped schedule length, P(g) = 2·i_max + 2·j_max + k_max/V, which it
// plugs into eq. 5 for the theoretical column of Fig. 12 (≈53, 76, 41 for
// the three experiments).
func (c Grid3D) PPaperOverlap(v int64) float64 {
	return float64(2*c.PI) + float64(2*c.PJ) + float64(c.K)/float64(v)
}

// PredictNonOverlap evaluates eq. 3 for tile height v.
func (c Grid3D) PredictNonOverlap(v int64, m Machine) float64 {
	return m.TotalNonOverlapped(c.PNonOverlap(v), c.InteriorStep(v, m))
}

// PredictOverlap evaluates eq. 4 for tile height v with the exact schedule
// length.
func (c Grid3D) PredictOverlap(v int64, m Machine) float64 {
	return m.TotalOverlapped(c.POverlap(v), c.InteriorStep(v, m))
}
