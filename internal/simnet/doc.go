// Package simnet is a deterministic discrete-event simulator for
// activity graphs over serially-shared resources.
//
// It substitutes for the paper's physical cluster: processors' CPUs, DMA
// engines and NIC links are Resources; the phases of every tile execution
// (MPI buffer fills, computation, kernel copies, wire transmission) are
// Activities with precedence edges. The engine computes the exact start and
// finish time of every activity under FIFO resource scheduling, giving the
// makespan of a schedule without running wall-clock experiments — and,
// unlike wall-clock runs, perfectly reproducibly.
//
// The model: an Activity occupies exactly one Resource for a fixed duration
// and may start only after all its predecessors have finished. A Resource
// executes one activity at a time, picking among ready activities the one
// that became ready first (ties broken by creation order). Completions are
// processed one at a time in (end, start sequence) order; after each, the
// freed resource chooses first, then the resources that gained ready work,
// in the order the completed activity's successors name them.
//
// # The event queue
//
// Every activity starts at the current event time: a resource is tried the
// moment it frees and the moment it gains ready work, and both the ready
// time and the resource's last end lie at or before now. So among the
// in-flight activities of one duration, a later start never ends earlier,
// and each duration's activities, kept in start order, are already sorted
// by (end, start sequence). The event queue keeps one FIFO per distinct
// duration and a binary heap over the FIFO heads only: it pops exactly the
// order a single heap over every in-flight activity would, but a push onto
// a non-empty FIFO costs no heap work and a pop sifts a heap of a dozen
// classes instead of dozens of activities. When every duration differs
// (fault jitter, per-node speeds), each FIFO holds one activity and the
// queue degrades to a heap of all of them; the classes live in
// engine-owned slices sized by the resource count, so even then no class
// costs an allocation.
//
// # Hierarchical fabrics
//
// Beyond per-node port resources, a Fabric models the switch hierarchy
// between nodes (topo.Spec: edge/aggregation tiers of a fat tree, per-level
// bandwidth and latency, a fixed number of parallel uplinks per switch).
// Every uplink and downlink is an ordinary Resource, so link contention at
// an oversubscribed tier falls out of the same FIFO scheduling that models
// CPU and NIC contention — no special queueing code. Route computes the
// up-then-down hop sequence of a message from the lowest common ancestor of
// its endpoints (LCA routing), spreading flows across parallel uplinks by a
// deterministic hash of the endpoint pair (ECMP without randomness, see
// topo.Spec.UplinkIndex). A message between nodes under the same edge
// switch takes zero fabric hops: the hierarchy is pay-as-you-go, and the
// zero topo.Spec reproduces the flat single-switch machine exactly.
// DESIGN.md §12 develops the model and its determinism argument.
//
// The engine is allocation-lean: activities and resources live in chunked
// slabs owned by the Engine (pointers stay valid as the graph grows),
// dependence edges accumulate in one flat list that Run compacts into a
// CSR-style successor array via a two-pass degree count, and Reset lets a
// caller reuse one Engine — and all of its backing memory — across many
// simulations (one engine per sweep worker). The graph is also
// pointer-free: an Activity refers to its resource, its predecessors and
// its successors by int32 index, labels live in a side table allocated
// only for traced builds, and the edge list, the CSR array, the event
// queue and the ready heaps hold int32 ids. The activity slabs are
// therefore no-scan memory the garbage collector never walks, however
// large the graph, and an Activity fills one 64-byte cache line. The
// Fabric follows the same discipline: its links are slab resources, sized
// once from the world size and the spec, and Route appends into a
// caller-owned buffer so steady-state routing allocates nothing — the
// per-rank allocation budget stays flat from 100 to 10000 ranks
// (BenchmarkScaleAllocBudget locks it).
package simnet
