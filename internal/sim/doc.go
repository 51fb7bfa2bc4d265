// Package sim executes tiled schedules on the simnet discrete-event cluster
// simulator, reproducing the paper's Section 5 experiments deterministically.
//
// It builds, for every tile, the phase decomposition of Fig. 4:
//
//	A1 = T_fill_MPI_buffer(send)    — CPU, non-overlappable
//	A2 = T_compute                  — CPU
//	A3 = T_fill_MPI_buffer(receive) — CPU, non-overlappable
//	B1 = T_receive (wire, rx side)  — NIC in
//	B2 = T_fill_kernel_buffer(recv) — DMA (or CPU without DMA)
//	B3 = T_fill_kernel_buffer(send) — DMA (or CPU without DMA)
//	B4 = T_transmit (wire, tx side) — NIC out
//
// and wires them into an activity DAG according to either the blocking
// receive→compute→send triplet of Section 3 (ProcB) or the pipelined
// send/compute/receive overlap of Section 4 (ProcNB).
//
// Every simulated computation is a box tiling built by BoxTopology, the
// one message model: a tile sends one message per destination processor,
// at its own step, carrying the distinct points of every tile direction
// with that processor offset, measured on the tile's clipped box. That is
// what runner.Run and runner.Run2D send, so a plan (core.Plan.SimulateOne),
// a Section 5 grid (GridConfig) and the Example 1 deployment of the same
// space, tiles and mapping give one number.
package sim
