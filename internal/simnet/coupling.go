package simnet

import (
	"math/cmplx"

	"mmx/internal/units"
)

// This file owns the cached pairwise coupling matrix: linear power
// factors (flat n×n; coupling[i*n+j] = FromDB(-couplingDB(i,j)), so the
// interference sum is pure multiply-add with no per-pair dB conversion).
// The cache depends only on assignments, harmonics and poses — NOT on
// blocker motion — so EvaluateSINR reuses it across environment steps.
//
// The matrix is built on first read: a network starts with it unbuilt
// (couplingDirty), so joins, leaves and updates before the first dense
// evaluation do no pair or matrix work at all, and a network that
// crosses into the sparse core before its first evaluation never builds
// one. The first evaluation runs the full parallel rebuild
// (ensureCoupling); from then on membership and assignment changes
// maintain the cache incrementally: a join appends one row and column
// (O(n) pair computations, storage grown by doubling), a leave compacts
// one row and column out, and a promotion, renew re-sync or move
// recomputes the affected node's row and column in place. The
// incremental results are golden-tested equal to a from-scratch rebuild.
//
// Every hook here first maintains the host-channel index (hostchan.go),
// which both engines share, then the live engine's own state.

// CouplingStats counts interference-bookkeeping work over a network's
// life. Every count is bumped on a serial path (or derived from the
// membership size), so it is identical at any worker count.
type CouplingStats struct {
	// DenseKernels counts pair kernels run to fill the dense matrix.
	DenseKernels int
	// DenseAllocs counts dense matrix allocations; DenseFloats the
	// float64 slots they reserved.
	DenseAllocs int
	DenseFloats int
	// DiscCells counts occupied grid cells the sparse core's disc
	// queries visited; DiscCandidates the nodes those cells held, each
	// handed to the exact admission test.
	DiscCells      int
	DiscCandidates int
}

// CouplingStats returns the interference-bookkeeping work counters
// accumulated over the network's life.
func (nw *Network) CouplingStats() CouplingStats { return nw.couplingStats }

// aclrCache holds the linear leakage factors FromDB(−dB) of the two ACLR
// classes together with the dB values they were derived from, so the
// pair kernel pays no pow per frequency-separated pair.
type aclrCache struct {
	ok           bool
	adjDB, farDB float64
	adj, far     float64
}

// refreshACLR re-derives the cache when ACLRAdjacentDB or ACLRFarDB
// changed since it was filled. It runs on serial paths only (the join
// hook and the top of the rebuild), never inside a worker fan-out.
func (nw *Network) refreshACLR() {
	c := &nw.aclr
	if !c.ok || c.adjDB != nw.ACLRAdjacentDB || c.farDB != nw.ACLRFarDB {
		*c = aclrCache{
			ok:    true,
			adjDB: nw.ACLRAdjacentDB, farDB: nw.ACLRFarDB,
			adj: units.FromDB(-nw.ACLRAdjacentDB), far: units.FromDB(-nw.ACLRFarDB),
		}
	}
}

// aclrFactor returns FromDB(−db), served from the cache when db is one of
// the cached class values — bit-identical either way.
func (nw *Network) aclrFactor(db float64) float64 {
	if c := &nw.aclr; c.ok {
		switch db {
		case c.adjDB:
			return c.adj
		case c.farDB:
			return c.far
		}
	}
	return units.FromDB(-db)
}

// pairCouplingLinear returns the linearized coupling factor
// FromDB(−couplingDB(node, other)) — how much of other's power lands in
// node's receiver — using other's indexed harmonic gain table. It is
// the single pair kernel shared by the full rebuild, every incremental
// update and the sparse core, so all paths are bit-identical by
// construction.
func (nw *Network) pairCouplingLinear(node, other *Node) float64 {
	if c, ok := nw.freqCouplingDB(node, other); ok {
		return nw.aclrFactor(c)
	}
	if node.apIndex() != other.apIndex() {
		// Cross-AP co-channel: the interferer is not part of the victim
		// AP's TMA schedule, so the array buys no separation — a full
		// collision, mitigated only by distance (the power term).
		return 1
	}
	if !node.SDMShared && !other.SDMShared {
		return 1 // full collision, 0 dB
	}
	maxM := nw.SDM.MaxHarmonic()
	tbl := other.hc.tbl
	own := cmplx.Abs(tbl[other.SDMHarmonic+maxM])
	leak := cmplx.Abs(tbl[node.SDMHarmonic+maxM])
	return units.FromDB(-tmaSuppressionDB(own, leak))
}

// couplingValid reports whether the cached matrix is trustworthy for a
// membership of size n — the precondition every incremental update
// checks before touching the cache. A live sparse core maintains its own
// incremental state, so it always counts as valid.
func (nw *Network) couplingValid(n int) bool {
	if nw.sparse != nil {
		return true
	}
	return !nw.couplingDirty && len(nw.coupling) == n*n
}

// couplingStorage returns the matrix storage resliced to size floats.
// When it must grow, the capacity at least doubles, so a membership
// growing one join at a time reallocates O(log n) times, not per join.
// Callers overwrite (or re-stride) every live entry.
func (nw *Network) couplingStorage(size int) []float64 {
	if cap(nw.coupling) >= size {
		return nw.coupling[:size]
	}
	c := 2 * cap(nw.coupling)
	if c < size {
		c = size
	}
	nw.couplingStats.DenseAllocs++
	nw.couplingStats.DenseFloats += c
	return make([]float64, size, c)
}

// ensureCoupling rebuilds the cached coupling matrix if it was
// invalidated (or never built). Each node's TMA gain table is already
// on its host-channel index entry, so the n² pair fill does table
// lookups instead of re-summing the array response per pair, and each
// entry is stored already linearized (FromDB(−dB)) so the per-call
// interference sum pays no dB conversion.
func (nw *Network) ensureCoupling() {
	if nw.sparse != nil {
		return
	}
	n := len(nw.Nodes)
	if nw.couplingValid(n) {
		return
	}
	nw.refreshACLR()
	nw.coupling = nw.couplingStorage(n * n)
	nw.forEachNode(n, func(i int) {
		node := nw.Nodes[i]
		row := nw.coupling[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if i == j {
				row[j] = 0 // unused: the interference sum skips i==j
				continue
			}
			row[j] = nw.pairCouplingLinear(node, nw.Nodes[j])
		}
	})
	nw.couplingStats.DenseKernels += n * (n - 1)
	nw.couplingDirty = false
}

// couplingAddNode indexes the node just appended to nw.Nodes and extends
// the live engine for it. A live dense cache has its existing rows
// re-strided in place (into doubled storage when it must grow) and only
// the new node's row and column computed — O(n) pair kernels instead of
// the O(n²) full rebuild; an unbuilt cache stays unbuilt.
func (nw *Network) couplingAddNode() {
	n := len(nw.Nodes)
	newcomer := nw.Nodes[n-1]
	nw.refreshACLR()
	nw.hosts.register(newcomer)
	if nw.sparse == nil && nw.couplingMode == CouplingAuto && n >= sparseCrossover {
		nw.enterSparse() // builds state for the full membership, newcomer included
		return
	}
	if nw.sparse != nil {
		nw.sparse.addNode(nw, newcomer)
		return
	}
	old := n - 1
	if !nw.couplingValid(old) {
		nw.couplingDirty = true
		return
	}
	if cap(nw.coupling) < n*n {
		grown := nw.couplingStorage(n * n)
		for i := 0; i < old; i++ {
			copy(grown[i*n:i*n+old], nw.coupling[i*old:(i+1)*old])
		}
		nw.coupling = grown
	} else {
		nw.coupling = nw.coupling[:n*n]
		// Re-stride in place back to front so a row never overwrites one
		// not yet moved (new offsets are ≥ old offsets for every row).
		for i := old - 1; i >= 1; i-- {
			copy(nw.coupling[i*n:i*n+old], nw.coupling[i*old:(i+1)*old])
		}
	}
	row := nw.coupling[old*n : n*n]
	for j := 0; j < old; j++ {
		row[j] = nw.pairCouplingLinear(newcomer, nw.Nodes[j])
		nw.coupling[j*n+old] = nw.pairCouplingLinear(nw.Nodes[j], newcomer)
	}
	row[old] = 0
	nw.couplingStats.DenseKernels += 2 * old
}

// couplingRemoveNode drops leaver (formerly at index k of nw.Nodes) from
// the index and the live engine. The dense path compacts row and column
// k out of the cache — pure memory moves, no pair kernel; the sparse
// path unhooks the leaver's adjacency. With an untrusted cache it
// degrades to the dirty flag.
func (nw *Network) couplingRemoveNode(leaver *Node, k int) {
	nw.hosts.unregister(leaver)
	if nw.sparse != nil {
		nw.sparse.removeNode(leaver)
		return
	}
	old := len(nw.Nodes) + 1
	if !nw.couplingValid(old) || k < 0 || k >= old {
		nw.couplingDirty = true
		return
	}
	n := old - 1
	dst := 0
	for i := 0; i < old; i++ {
		if i == k {
			continue
		}
		for j := 0; j < old; j++ {
			if j == k {
				continue
			}
			// dst never overtakes the source index i*old+j, so the
			// forward compaction is safe in place.
			nw.coupling[dst] = nw.coupling[i*old+j]
			dst++
		}
	}
	nw.coupling = nw.coupling[:n*n]
}

// couplingUpdateNode re-indexes one live node after its assignment or
// SDM role changed (promotion, renew re-sync, reboot rejoin) and updates
// the live engine — for the dense cache, the node's row and column.
func (nw *Network) couplingUpdateNode(target *Node) {
	nw.hosts.reregister(target)
	if nw.sparse != nil {
		nw.sparse.updateNode(nw, target)
		return
	}
	nw.denseRefreshNode(target)
}

// couplingMoveNode refreshes the coupling state after target's pose (and
// possibly harmonic slot) changed; the caller has already re-aimed its
// gain table. The dense cache recomputes the node's row and column in
// place — O(n) pair kernels, not the full rebuild.
func (nw *Network) couplingMoveNode(target *Node) {
	nw.hosts.reregister(target)
	if nw.sparse != nil {
		nw.sparse.moveNode(nw, target)
		return
	}
	nw.denseRefreshNode(target)
}

// denseRefreshNode recomputes a live node's row and column of the dense
// cache. The target's index comes from its maintained idx field. With an
// untrusted cache (or a node not in the membership list) it degrades to
// the dirty flag.
func (nw *Network) denseRefreshNode(target *Node) {
	n := len(nw.Nodes)
	if !nw.couplingValid(n) {
		nw.couplingDirty = true
		return
	}
	i := target.idx
	if i < 0 || i >= n || nw.Nodes[i] != target {
		nw.couplingDirty = true
		return
	}
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		nw.coupling[i*n+j] = nw.pairCouplingLinear(target, nw.Nodes[j])
		nw.coupling[j*n+i] = nw.pairCouplingLinear(nw.Nodes[j], target)
	}
	nw.couplingStats.DenseKernels += 2 * (n - 1)
}

// roamDetach and roamAttach bracket a roam's AP switch for the coupling
// layer. The index and the sparse core key their bookkeeping (channel
// shard, cross-AP out-edge counters) on the node's serving AP, so the
// teardown must run while the old association is still in place and the
// re-registration after the new one (and its assignment) are: detach
// takes the node out of the index and clears its edges and grid slot;
// attach re-indexes it at the new AP, re-derives its power bound and
// rediscovers the adjacency. The dense matrix carries no AP-scoped
// incremental state, so for it attach is the ordinary row/column refresh.
func (nw *Network) roamDetach(n *Node) {
	nw.hosts.unregister(n)
	if s := nw.sparse; s != nil {
		s.clearEdges(n)
		s.gridRemove(n)
	}
}

func (nw *Network) roamAttach(n *Node) {
	nw.hosts.register(n)
	if s := nw.sparse; s != nil {
		s.registerNode(nw, n)
		s.discoverIn(nw, n)
		s.discoverOut(nw, n)
		s.markEvalStale(n)
		return
	}
	nw.denseRefreshNode(n)
}

// couplingPowerChanged tells the coupling layer a node's transmit state
// flipped without its assignment changing (crash, reboot-in-progress).
// The dense matrix doesn't cache power — EvaluateSINR zeroes Down nodes
// each call — but the sparse core's victims must re-sum their
// interference rows, so it marks them dirty.
func (nw *Network) couplingPowerChanged(target *Node) {
	if nw.sparse != nil {
		nw.sparse.powerChanged(nw, target)
	}
}
