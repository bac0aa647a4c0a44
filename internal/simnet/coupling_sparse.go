package simnet

import (
	"math"
	"math/bits"
	"math/cmplx"

	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/rf"
	"mmx/internal/units"
)

// This file owns the sparse spatial coupling core — the scale path the
// dense matrix in coupling.go is the golden reference for. Instead of an
// n×n matrix it keeps a directed interference graph: node j has an edge
// into node i only when j's power can provably reach i's receiver above
// a cutoff anchored at i's noise floor. Everything in the network is
// received at the AP, so an edge needs two things at once:
//
//   - the SOURCE must be audible: a conservative, motion-invariant bound
//     on its received power at the AP (pBound, derived below) must clear
//     the victim's threshold. Sources far from the AP fail this for
//     every victim and carry no edges at all — the spatial screen, served
//     by a uniform grid over the room.
//   - the PAIR's frequency-domain factor w (the same pairCouplingLinear
//     kernel the dense matrix uses) must keep pBound·w above the
//     threshold — the frequency screen, served by the network's
//     host-channel index (hostchan.go: co-channel victims are the
//     channel's occupants; other channels are screened by a conservative
//     ACLR class bound).
//
// Per-victim interference is always re-summed from the node's in-edge
// list when anything feeding it changes — never maintained by scalar
// adds and subtracts, which would drift past the ≤1e-12 equivalence
// discipline. Membership, motion, promotion and crash events mark the
// affected victims dirty; settle() then re-evaluates exactly the dirty
// set, so an event costs O(degree), not O(n).

// CouplingMode selects the interference bookkeeping strategy.
type CouplingMode int

const (
	// CouplingAuto runs the dense matrix until membership reaches
	// sparseCrossover, then switches (one-way) to the sparse core.
	CouplingAuto CouplingMode = iota
	// CouplingDense pins the golden-reference dense matrix at any size.
	CouplingDense
	// CouplingSparse builds the sparse core immediately.
	CouplingSparse
)

// sparseCrossover is the membership size where CouplingAuto switches to
// the sparse core. Below it the dense matrix is both faster (no graph
// bookkeeping) and byte-stable for the existing fingerprint tests; it
// sits above the 500-node legacy membership benchmarks so their dense
// measurements stay comparable, and below the 1k rung of
// BenchmarkNetworkScale so every rung of the scaling curve exercises the
// sparse path.
const sparseCrossover = 768

// sparseDMin clamps the distance used by the power bound so a node
// placed (pathologically) on top of the AP still gets a finite bound.
const sparseDMin = 0.05 // meters

// inEdge is one source coupling into a victim: the source, the pair's
// linearized coupling factor, and the slot of the mirror outEdge in the
// source's out list (so either side can unhook the pair in O(1)).
type inEdge struct {
	src     *Node
	w       float64
	srcSlot int
}

// outEdge is the mirror half: the victim and the slot of the inEdge in
// its in list.
type outEdge struct {
	dst     *Node
	dstSlot int
}

// spNode is a node's sparse-coupling state, embedded by value in Node
// and zero while the network runs dense.
type spNode struct {
	in  []inEdge
	out []outEdge
	// pBound is the conservative ceiling on the node's received power at
	// the AP (watts) — motion-invariant until the node itself moves.
	pBound float64
	// noise is the node's receiver noise floor (bandwidth-dependent).
	noise float64
	// power is the node's actual received power at its serving AP from
	// the last link evaluation; interf the last interference re-sum.
	power  float64
	interf float64
	// xap is the node's bookkeeping toward every foreign AP, indexed by
	// AP index. It stays nil until the node's first cross-AP edge, so
	// single-AP runs carry no per-node overhead.
	xap  []xSlot
	eval core.Evaluation
	rep  Report
	// grid bookkeeping (swap-remove slot).
	cell     int
	cellSlot int
	// dirty flags: queued dedups membership in the dirty list.
	// evalStale invalidates the serving evaluation and every cross-AP
	// power. Region invalidation is finer: servStale invalidates only
	// the serving evaluation, and xStale records that some xap[a].stale
	// is set.
	sumDirty  bool
	evalStale bool
	servStale bool
	xStale    bool
	queued    bool
	// powerMoved records, within one settle, that the eval pass changed
	// the node's received power — its victims must re-sum.
	powerMoved bool
}

// xSlot is a node's view of one foreign AP a: out counts its out-edges
// into victims served at a, and power caches its received power at a,
// refreshed by the eval pass whenever out is nonzero. stale marks power
// alone invalidated (a blocker crossed one of its paths toward a), so
// the eval pass re-traces that one link instead of the whole node.
type xSlot struct {
	power float64
	out   int32
	stale bool
}

// sparseState is the per-network sparse core. All scratch slices are
// retained across events so a churning run stays allocation-flat once
// warm.
type sparseState struct {
	cut      float64 // linear edge-admission cutoff (FromDB(CouplingCutoffDB))
	pC       float64 // pBound numerator: power ≤ pC / max(d,dMin)²
	minNoise float64 // conservative (never-raised) min noise floor

	// Uniform grid over the room for audible-source disc queries.
	nx, ny       int
	cellW, cellH float64
	cells        [][]*Node
	// occBits is the grid's occupancy bitmask, rowWords words per row
	// (bit ix of row iy set iff cells[iy*nx+ix] is non-empty), so a disc
	// query visits occupied cells only.
	occBits  []uint64
	rowWords int
	// bbMin/bbMax bound every node position ever inserted, unioned with
	// the room rectangle. cellIndex clamps out-of-room positions into
	// edge cells, so the region-invalidation descent (region.go) extends
	// the boundary cells' rectangles to this box — tight when everyone
	// is inside the room, and never shrunk, so it stays sound for nodes
	// that have left.
	bbMin, bbMax channel.Vec2

	// nAPs sizes the per-node cross-AP bookkeeping vectors.
	nAPs int

	dirty    []*Node
	envEpoch uint64
	// allStale marks that the current dirty set is the whole membership
	// (stale-everything fallback): the eval pass can skip the per-source
	// victim propagation, every victim is already queued.
	allStale bool

	// scratch, reused across calls
	evalScratch     []*Node
	sweptScratch    []channel.SweptRegion
	corridorScratch []corridor
	wallScratch     []channel.Wall

	// occ is the per-AP occupancy index region invalidation prunes with
	// (region.go): nAPs summed-area tables of (nx+1)×(ny+1) counts,
	// row-major, rebuilt per synced batch of swept regions; occTotal
	// holds each AP's whole-grid count.
	occ      []int32
	occTotal []int32
}

// enterSparse builds the sparse core for the current membership and
// releases the dense cache (if it was ever built). The host-channel index
// and every node's gain table carry over as they are. One-way in auto
// mode: the graph stays for the life of the network (or until
// SetCouplingMode(CouplingDense)).
func (nw *Network) enterSparse() {
	s := newSparseState(nw)
	nw.sparse = s
	for _, n := range nw.Nodes {
		n.sp = spNode{} // drop any state from an earlier sparse epoch
		s.registerNode(nw, n)
	}
	// Victim-side discovery visits every directed pair exactly once.
	for _, n := range nw.Nodes {
		s.discoverIn(nw, n)
		s.markEvalStale(n)
	}
	nw.coupling = nil
	nw.couplingDirty = true
}

func newSparseState(nw *Network) *sparseState {
	room := nw.Env.Room
	nx, ny := 128, 128
	s := &sparseState{
		cut:      units.FromDB(nw.CouplingCutoffDB),
		pC:       nw.sparsePowerBoundConst(),
		minNoise: math.Inf(1),
		nx:       nx,
		ny:       ny,
		cellW:    room.Width / float64(nx),
		cellH:    room.Height / float64(ny),
		cells:    make([][]*Node, nx*ny),
		rowWords: (nx + 63) / 64,
		nAPs:     len(nw.APs),
		envEpoch: nw.Env.Epoch(),
		bbMin:    channel.Vec2{},
		bbMax:    channel.Vec2{X: room.Width, Y: room.Height},
	}
	s.occBits = make([]uint64, s.rowWords*ny)
	return s
}

// sparsePowerBoundConst derives the numerator of the conservative
// received-power bound pBound(d) = pC / max(d, dMin)². For any node at
// planar distance d from the AP, its peak received power satisfies
//
//	peak² ≤ [amp · (sel+leak) · Gt · Gr · (λ/4π) · M]² / d²
//
// because every propagation path is at least d long, the elevation
// factor is ≤1, blockage only subtracts, and the image-method path set
// contributes at most M = 1 + Σr + (Σr)² times the LoS spreading term
// (r summed over every wall's field reflection coefficient: ≤Σr across
// single bounces, ≤(Σr)² across ordered double bounces). Gt and Gr are
// the pattern maxima of the node beams and the AP antenna, found by
// dense angular sampling with headroom for the sampling grid. The bound
// deliberately over-estimates by tens of dB — it only has to be sound
// and motion-invariant, since it gates which pairs are *stored*, not
// what they contribute.
func (nw *Network) sparsePowerBoundConst() float64 {
	const samples = 4096
	gt, gr := 0.0, 0.0
	for k := 0; k < samples; k++ {
		th := 2 * math.Pi * float64(k) / samples
		if a := cmplx.Abs(nw.NodeBeams.Beam0.FieldGain(th)); a > gt {
			gt = a
		}
		if a := cmplx.Abs(nw.NodeBeams.Beam1.FieldGain(th)); a > gt {
			gt = a
		}
		// gr bounds the receive gain of EVERY AP at once (float max is
		// order-free, so with one AP this is the old single-pattern scan).
		for _, ap := range nw.APs {
			if a := cmplx.Abs(ap.Pattern.FieldGain(th)); a > gr {
				gr = a
			}
		}
	}
	// Headroom for the angular sampling grid (the patterns are smooth,
	// low-order shapes; 5% in field ≈ 0.4 dB in power).
	gt *= 1.05
	gr *= 1.05
	refl := 0.0
	room := nw.Env.Room
	for _, w := range room.Walls {
		refl += math.Pow(10, -w.ReflectionLossDB/20)
	}
	for _, w := range room.Interior {
		refl += math.Pow(10, -w.ReflectionLossDB/20)
	}
	margin := 1 + refl + refl*refl
	amp := math.Sqrt(units.FromDBm(nw.LinkCfg.TxPowerDBm)) *
		math.Pow(10, -nw.LinkCfg.ImplementationLossDB/20)
	// Switch field gains: selected path plus the leaked port, both
	// arriving coherently in the worst case. Joining nodes all get links
	// through core.NewLink, which installs the ADRF5020 model — read the
	// figures off a member when one exists so a customized switch still
	// bounds correctly.
	sw := rf.NewADRF5020()
	if len(nw.Nodes) > 0 && nw.Nodes[0].Link != nil {
		sw = nw.Nodes[0].Link.Switch
	}
	sel, leak := sw.SelectedGain(), sw.LeakageGain()
	lam := units.Wavelength(nw.Env.FreqHz)
	field := amp * (sel + leak) * gt * gr * (lam / (4 * math.Pi)) * margin
	return field * field * 1.1 // final safety factor on the power bound
}

// registerNode installs a node into the grid and the noise tracking and
// anchors its power bound at its serving AP (a roam re-runs this after
// the association flips). It does not discover edges; the node's gain
// table and channel registration live in the host-channel index.
func (s *sparseState) registerNode(nw *Network, n *Node) {
	n.sp.pBound = s.pBoundAt(n.Pose.Pos, nw.hostAP(n))
	s.noteNoise(n)
	s.gridInsert(n)
}

// noteNoise refreshes the node's receiver noise floor (bandwidth-
// dependent) and the network-wide minimum the class screen uses.
func (s *sparseState) noteNoise(n *Node) {
	n.sp.noise = n.Link.Cfg.NoisePowerW()
	if n.sp.noise < s.minNoise {
		s.minNoise = n.sp.noise
	}
}

// pBoundAt anchors the conservative received-power bound at an arbitrary
// AP — the cross-shard analogue of the pBound cached by registerNode. The
// float operations are identical, so evaluated at a node's own serving
// AP it reproduces the cached value bit-for-bit.
func (s *sparseState) pBoundAt(p channel.Vec2, ap *AccessPoint) float64 {
	d := p.Dist(ap.Pose.Pos)
	if d < sparseDMin {
		d = sparseDMin
	}
	return s.pC / (d * d)
}

// --- grid ---

func (s *sparseState) cellIndex(p channel.Vec2) int {
	ix := int(math.Floor(p.X / s.cellW))
	iy := int(math.Floor(p.Y / s.cellH))
	if ix < 0 {
		ix = 0
	}
	if ix >= s.nx {
		ix = s.nx - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= s.ny {
		iy = s.ny - 1
	}
	return iy*s.nx + ix
}

func (s *sparseState) gridInsert(n *Node) {
	p := n.Pose.Pos
	s.bbMin.X = math.Min(s.bbMin.X, p.X)
	s.bbMin.Y = math.Min(s.bbMin.Y, p.Y)
	s.bbMax.X = math.Max(s.bbMax.X, p.X)
	s.bbMax.Y = math.Max(s.bbMax.Y, p.Y)
	c := s.cellIndex(p)
	n.sp.cell = c
	n.sp.cellSlot = len(s.cells[c])
	s.cells[c] = append(s.cells[c], n)
	if len(s.cells[c]) == 1 {
		s.occBits[s.bitWord(c)] |= 1 << uint(c%s.nx%64)
	}
}

// bitWord is the occBits word holding cell c's occupancy bit.
func (s *sparseState) bitWord(c int) int {
	return c/s.nx*s.rowWords + c%s.nx/64
}

func (s *sparseState) gridRemove(n *Node) {
	c, sl := n.sp.cell, n.sp.cellSlot
	lst := s.cells[c]
	last := len(lst) - 1
	if sl != last {
		lst[sl] = lst[last]
		lst[sl].sp.cellSlot = sl
	}
	lst[last] = nil
	s.cells[c] = lst[:last]
	if last == 0 {
		s.occBits[s.bitWord(c)] &^= 1 << uint(c%s.nx%64)
	}
}

// forEachInDisc visits every node whose grid cell intersects the disc of
// radius r around p, cell by cell in row-major order. Only occupied cells
// are visited: each row of the disc's bounding box is walked through the
// occupancy bitmask, set bits in ascending column order, so the visiting
// order is exactly that of a scan over every cell. Cells are screened by
// rectangle-to-point distance; individual nodes inside a surviving cell
// are NOT distance-filtered — callers re-check admission exactly, so the
// disc only has to be a superset. It returns how many cells were visited
// and how many nodes they held.
func (s *sparseState) forEachInDisc(p channel.Vec2, r float64, fn func(*Node)) (cells, nodes int) {
	ix0 := int(math.Floor((p.X - r) / s.cellW))
	ix1 := int(math.Floor((p.X + r) / s.cellW))
	iy0 := int(math.Floor((p.Y - r) / s.cellH))
	iy1 := int(math.Floor((p.Y + r) / s.cellH))
	if ix0 < 0 {
		ix0 = 0
	}
	if iy0 < 0 {
		iy0 = 0
	}
	if ix1 >= s.nx {
		ix1 = s.nx - 1
	}
	if iy1 >= s.ny {
		iy1 = s.ny - 1
	}
	if ix0 > ix1 || iy0 > iy1 {
		return 0, 0
	}
	r2 := r * r
	w0, w1 := ix0/64, ix1/64
	for iy := iy0; iy <= iy1; iy++ {
		row := s.occBits[iy*s.rowWords : (iy+1)*s.rowWords]
		for w := w0; w <= w1; w++ {
			word := row[w]
			if lo := ix0 - 64*w; lo > 0 {
				word &= ^uint64(0) << uint(lo)
			}
			if hi := ix1 - 64*w; hi < 63 {
				word &= ^uint64(0) >> uint(63-hi)
			}
			for word != 0 {
				ix := 64*w + bits.TrailingZeros64(word)
				word &= word - 1
				// Nearest point of the cell rectangle to p.
				dx := 0.0
				if x0 := float64(ix) * s.cellW; p.X < x0 {
					dx = x0 - p.X
				} else if x1 := float64(ix+1) * s.cellW; p.X > x1 {
					dx = p.X - x1
				}
				dy := 0.0
				if y0 := float64(iy) * s.cellH; p.Y < y0 {
					dy = y0 - p.Y
				} else if y1 := float64(iy+1) * s.cellH; p.Y > y1 {
					dy = p.Y - y1
				}
				if dx*dx+dy*dy > r2 {
					continue
				}
				lst := s.cells[iy*s.nx+ix]
				cells++
				nodes += len(lst)
				for _, n := range lst {
					fn(n)
				}
			}
		}
	}
	return cells, nodes
}

// --- channel screen ---

// classBoundLinear is the conservative linear ceiling on the frequency
// coupling factor between a channel at (c0,w0) and ANY occupant of the
// indexed channel cs: using cs.maxWidth in both the overlap and the
// adjacency test can only move the classification toward the louder
// class, so the returned bound dominates freqCouplingDB's per-pair
// answer for every actual occupant width ≤ maxWidth.
func (nw *Network) classBoundLinear(c0, w0 float64, cs *chanState) float64 {
	sep := math.Abs(c0 - cs.center)
	half := (w0 + cs.maxWidth) / 2
	if sep < half {
		return 1 // could overlap: full collision is possible
	}
	if sep-half < math.Min(w0, cs.maxWidth) {
		return nw.aclrFactor(nw.ACLRAdjacentDB)
	}
	return nw.aclrFactor(nw.ACLRFarDB)
}

// --- edges ---

func (s *sparseState) markDirty(n *Node) {
	n.sp.sumDirty = true
	if !n.sp.queued {
		n.sp.queued = true
		s.dirty = append(s.dirty, n)
	}
}

func (s *sparseState) markEvalStale(n *Node) {
	n.sp.evalStale = true
	s.markDirty(n)
}

// markStaleFor invalidates only what node n caches about AP a: its
// serving evaluation when a serves it, otherwise its received power at
// a. The latter queues n for the eval pass without re-summing its own
// interference row — only n's victims care, and the eval pass queues
// them if the power moved.
func (s *sparseState) markStaleFor(n *Node, a int) {
	if a == n.apIndex() {
		n.sp.servStale = true
		s.markDirty(n)
		return
	}
	n.sp.xap[a].stale = true
	n.sp.xStale = true
	if !n.sp.queued {
		n.sp.queued = true
		s.dirty = append(s.dirty, n)
	}
}

// staleFor reports whether node n's state depending on AP a is already
// invalidated.
func staleFor(n *Node, a int) bool {
	if n.sp.evalStale {
		return true
	}
	if a == n.apIndex() {
		return n.sp.servStale
	}
	return n.sp.xap[a].stale
}

func (s *sparseState) addEdge(src, dst *Node, w float64) {
	si := len(src.sp.out)
	di := len(dst.sp.in)
	src.sp.out = append(src.sp.out, outEdge{dst: dst, dstSlot: di})
	dst.sp.in = append(dst.sp.in, inEdge{src: src, w: w, srcSlot: si})
	if da := dst.apIndex(); da != src.apIndex() {
		if src.sp.xap == nil {
			src.sp.xap = make([]xSlot, s.nAPs)
		}
		src.sp.xap[da].out++
		if src.sp.xap[da].out == 1 {
			// First victim at that AP: the source's cached power there has
			// never been computed (or went stale while unreferenced), so
			// force an eval pass over it before the victim re-sums.
			s.markEvalStale(src)
		}
	}
	s.markDirty(dst)
}

// noteUnhook reverses addEdge's cross-AP bookkeeping for a pair about to
// be unhooked. Edges are always torn down before an endpoint's
// association changes (roamDetach runs under the old AP), so the AP
// indexes seen here match the ones addEdge counted.
func (s *sparseState) noteUnhook(src, dst *Node) {
	if da := dst.apIndex(); da != src.apIndex() && src.sp.xap != nil {
		src.sp.xap[da].out--
	}
}

// removeOutEdgeAt unhooks src.out[si] and its mirror in-edge, fixing the
// slot pointers of whichever edges the swap-removes displaced.
func (s *sparseState) removeOutEdgeAt(src *Node, si int) {
	e := src.sp.out[si]
	dst, di := e.dst, e.dstSlot
	s.noteUnhook(src, dst)
	last := len(dst.sp.in) - 1
	if di != last {
		moved := dst.sp.in[last]
		dst.sp.in[di] = moved
		moved.src.sp.out[moved.srcSlot].dstSlot = di
	}
	dst.sp.in = dst.sp.in[:last]
	lastO := len(src.sp.out) - 1
	if si != lastO {
		movedO := src.sp.out[lastO]
		src.sp.out[si] = movedO
		movedO.dst.sp.in[movedO.dstSlot].srcSlot = si
	}
	src.sp.out = src.sp.out[:lastO]
	s.markDirty(dst)
}

// removeInEdgeAt unhooks dst.in[di] and its mirror out-edge.
func (s *sparseState) removeInEdgeAt(dst *Node, di int) {
	e := dst.sp.in[di]
	src, si := e.src, e.srcSlot
	s.noteUnhook(src, dst)
	lastO := len(src.sp.out) - 1
	if si != lastO {
		movedO := src.sp.out[lastO]
		src.sp.out[si] = movedO
		movedO.dst.sp.in[movedO.dstSlot].srcSlot = si
	}
	src.sp.out = src.sp.out[:lastO]
	last := len(dst.sp.in) - 1
	if di != last {
		moved := dst.sp.in[last]
		dst.sp.in[di] = moved
		moved.src.sp.out[moved.srcSlot].dstSlot = di
	}
	dst.sp.in = dst.sp.in[:last]
	s.markDirty(dst)
}

// clearEdges drops every edge touching n, marking the affected victims
// dirty. Removing from the back keeps every removal swap-free.
func (s *sparseState) clearEdges(n *Node) {
	for len(n.sp.out) > 0 {
		s.removeOutEdgeAt(n, len(n.sp.out)-1)
	}
	for len(n.sp.in) > 0 {
		s.removeInEdgeAt(n, len(n.sp.in)-1)
	}
}

// discoverIn finds every source audible to victim v: a grid disc query
// around v's SERVING AP bounds the candidate set (v's receiver lives
// there; anything outside the disc has a power bound below cut·noise
// even at w=1), then each candidate is admitted exactly through the
// shared pair kernel. A candidate served by another AP carries a bound
// anchored at ITS AP, so the screen re-anchors it at v's — that is the
// only extra work the multi-AP case adds to this path.
func (s *sparseState) discoverIn(nw *Network, v *Node) {
	threshold := s.cut * v.sp.noise
	r := math.Sqrt(s.pC / threshold)
	if r < sparseDMin {
		r = sparseDMin
	}
	apV := nw.hostAP(v)
	vi := apV.idx
	cells, cands := s.forEachInDisc(apV.Pose.Pos, r, func(j *Node) {
		if j == v {
			return
		}
		pb := j.sp.pBound
		if j.apIndex() != vi {
			pb = s.pBoundAt(j.Pose.Pos, apV)
		}
		if pb < threshold {
			return
		}
		w := nw.pairCouplingLinear(v, j)
		if pb*w >= threshold {
			s.addEdge(j, v, w)
		}
	})
	nw.couplingStats.DiscCells += cells
	nw.couplingStats.DiscCandidates += cands
}

// discoverOut finds every victim source u can reach, one shard at a
// time: victims in shard a hear u at AP a, so u's power bound is
// re-anchored there before the screens run. Each shard's channels are
// screened first by the conservative ACLR class bound against the
// network's lowest noise floor, then each surviving occupant admitted
// exactly. An inaudible source (re-anchored bound below even the w=1
// threshold) skips that shard's walk entirely — the common case for
// shards whose AP sits across the floor.
func (s *sparseState) discoverOut(nw *Network, u *Node) {
	ui := u.apIndex()
	for ai := range nw.APs {
		pb := u.sp.pBound
		if ai != ui {
			pb = s.pBoundAt(u.Pose.Pos, nw.APs[ai])
		}
		if pb < s.cut*s.minNoise {
			continue
		}
		for _, cs := range nw.hosts.channels(ai) {
			wMax := nw.classBoundLinear(u.Assignment.CenterHz, u.Assignment.WidthHz, cs)
			if pb*wMax < s.cut*s.minNoise {
				continue
			}
			for _, lst := range cs.occ {
				for _, v := range lst {
					if v == u {
						continue
					}
					w := nw.pairCouplingLinear(v, u)
					if pb*w >= s.cut*v.sp.noise {
						s.addEdge(u, v, w)
					}
				}
			}
		}
	}
}

// --- membership / assignment / motion hooks (called via coupling.go) ---

func (s *sparseState) addNode(nw *Network, n *Node) {
	s.registerNode(nw, n)
	s.discoverIn(nw, n)
	s.discoverOut(nw, n)
	s.markEvalStale(n)
}

func (s *sparseState) removeNode(n *Node) {
	s.clearEdges(n)
	s.gridRemove(n)
	n.sp = spNode{}
}

// updateNode handles an assignment or SDM-role change at a fixed pose
// (promotion, renew re-sync, reboot rejoin): refresh the noise floor
// (the bandwidth may have changed) and rebuild the node's edges both
// ways against its new channel.
func (s *sparseState) updateNode(nw *Network, n *Node) {
	s.noteNoise(n)
	s.clearEdges(n)
	s.discoverIn(nw, n)
	s.discoverOut(nw, n)
	s.markEvalStale(n)
}

// moveNode handles a pose change: new power bound, new grid cell and a
// full edge rebuild for the moved node (everyone else's edges are
// pose-independent). The gain table and harmonic bucket were refreshed
// through the host-channel index first.
func (s *sparseState) moveNode(nw *Network, n *Node) {
	s.gridRemove(n)
	n.sp.pBound = s.pBoundAt(n.Pose.Pos, nw.hostAP(n))
	s.gridInsert(n)
	s.clearEdges(n)
	s.discoverIn(nw, n)
	s.discoverOut(nw, n)
	s.markEvalStale(n)
}

// powerChanged handles a transmit-state flip with no assignment change
// (crash): the node's victims must re-sum without it, and its own report
// flips to the down sentinel. Edges stay — a reboot restores them as-is.
func (s *sparseState) powerChanged(nw *Network, n *Node) {
	for i := range n.sp.out {
		s.markDirty(n.sp.out[i].dst)
	}
	s.markDirty(n)
}

// --- evaluation ---

// syncEnv folds environment changes since the last settle into the
// dirty set. With region invalidation on (the default) each blocker
// change's swept capsule is mapped through the grid corridors
// (region.go) and only the nodes whose paths it can reach go stale —
// everyone else keeps their cached evaluation bit-identically. The
// stale-everything fallback covers the toggle-off baseline and a
// consumer that outlived the environment's bounded swept log.
func (s *sparseState) syncEnv(nw *Network) {
	ep := nw.Env.Epoch()
	if ep == s.envEpoch {
		return
	}
	from := s.envEpoch
	s.envEpoch = ep
	if !nw.DisableRegionInvalidation {
		regions, ok := nw.Env.SweptSince(from, s.sweptScratch[:0])
		s.sweptScratch = regions[:0]
		if ok {
			if len(regions) > 0 {
				s.buildOccupancy(nw)
			}
			for _, r := range regions {
				s.regionStale(nw, r)
			}
			return
		}
	}
	nw.regionStats.StaleAll++
	s.staleAll(nw)
}

// staleAll marks the whole membership for re-evaluation.
func (s *sparseState) staleAll(nw *Network) {
	s.dirty = s.dirty[:0]
	for _, n := range nw.Nodes {
		n.sp.evalStale = true
		n.sp.sumDirty = true
		n.sp.queued = true
		s.dirty = append(s.dirty, n)
	}
	s.allStale = true
}

// settle brings every dirty node's cached report up to date: the eval
// pass re-runs the link evaluations (the ray-tracing hot path) for
// nodes whose geometry or environment changed, the finish pass re-sums
// interference rows and rebuilds reports. Both passes fan out over the
// worker pool; each node writes only its own state, so results are
// order-independent. An event settles in O(dirty degree); an
// environment step in O(nodes the blockers' swept regions can affect).
func (s *sparseState) settle(nw *Network) {
	s.syncEnv(nw)
	if len(s.dirty) == 0 {
		return
	}
	s.runEvalPass(nw)
	s.finishDirty(nw)
}

// runEvalPass re-evaluates the stale members of the dirty set in
// parallel, then (serially, so the dirty list grows deterministically at
// any worker count) queues the victims of every node whose received
// power actually changed — their interference rows are stale too. The
// propagation sweep is skipped when the whole membership is already
// queued.
func (s *sparseState) runEvalPass(nw *Network) {
	work := s.evalScratch[:0]
	for _, n := range s.dirty {
		if nw.nodeIdx[n.ID] != n {
			continue // left (or was replaced) while queued
		}
		if n.sp.evalStale || n.sp.servStale || n.sp.xStale {
			work = append(work, n)
		}
	}
	nw.forEachNode(len(work), func(i int) {
		n := work[i]
		full := n.sp.evalStale
		serv := full || n.sp.servStale
		n.sp.evalStale, n.sp.servStale, n.sp.xStale = false, false, false
		moved := false
		if serv {
			oldPower := n.sp.power
			if n.Down {
				n.sp.power = 0
			} else {
				n.sp.eval = n.Link.EvaluateWithClass()
				g := math.Max(cmplx.Abs(n.sp.eval.G0), cmplx.Abs(n.sp.eval.G1))
				n.sp.power = g * g
			}
			moved = n.sp.power != oldPower
		}
		// Refresh the node's received power at the foreign APs it has
		// victims at (cross-shard edges): all of them after a full
		// invalidation, otherwise the ones marked stale. Down sources are
		// skipped: their victims skip them in the re-sum, exactly like
		// the serving path.
		ai := n.apIndex()
		for a := range n.sp.xap {
			x := &n.sp.xap[a]
			stale := x.stale
			x.stale = false
			if x.out <= 0 || a == ai || n.Down || !(full || stale) {
				continue
			}
			if p := nw.crossPower(n, a); p != x.power {
				x.power = p
				moved = true
			}
		}
		n.sp.powerMoved = moved
	})
	if !s.allStale {
		for _, n := range work {
			if !n.sp.powerMoved {
				continue
			}
			for i := range n.sp.out {
				s.markDirty(n.sp.out[i].dst)
			}
		}
	}
	s.evalScratch = work[:0]
}

// finishDirty re-sums and rebuilds the report of every queued node, then
// resets the dirty set.
func (s *sparseState) finishDirty(nw *Network) {
	dirty := s.dirty
	nw.forEachNode(len(dirty), func(i int) {
		n := dirty[i]
		if nw.nodeIdx[n.ID] != n {
			return
		}
		n.sp.queued = false
		if !n.sp.sumDirty {
			return
		}
		n.sp.sumDirty = false
		s.finishNode(n)
	})
	s.dirty = dirty[:0]
	s.allStale = false
}

// finishNode re-sums one victim's interference row from scratch and
// rebuilds its report. Always a fresh sum — incremental ± maintenance
// would accumulate rounding drift past the equivalence tolerance.
func (s *sparseState) finishNode(n *Node) {
	if n.Down {
		n.sp.interf = 0
		n.sp.rep = Report{
			ID: n.ID, SNRdB: math.Inf(-1), SINRdB: math.Inf(-1),
			BER: 1, PathClass: "down", SDM: n.SDMShared,
		}
		return
	}
	interf := 0.0
	vi := n.apIndex()
	for i := range n.sp.in {
		e := &n.sp.in[i]
		if e.src.Down {
			continue // matches the dense path's powers[j]=0 for crashed nodes
		}
		p := e.src.sp.power
		if e.src.apIndex() != vi {
			// Cross-shard source: its power at THIS victim's AP, not at
			// its own serving AP. The eval pass keeps xap[vi].power fresh
			// for as long as the edge exists (xap[vi].out > 0).
			p = e.src.sp.xap[vi].power
		}
		interf += p * e.w
	}
	n.sp.interf = interf
	noise := n.sp.eval.NoisePowerW
	p := n.sp.power
	sinr := units.DB(p / (noise + interf))
	ev := n.sp.eval
	ev.SNRWithOTAM = sinr
	n.sp.rep = Report{
		ID:        n.ID,
		SNRdB:     units.DB(p / noise),
		SINRdB:    sinr,
		BER:       ev.BERWithOTAM(),
		PathClass: ev.PathClass,
		SDM:       n.SDMShared,
	}
}

// evaluateInto is EvaluateSINRInto's sparse backend: settle, then
// assemble the report slice in membership order (same layout as the
// dense path), reusing out's capacity when it suffices.
func (s *sparseState) evaluateInto(nw *Network, out []Report) []Report {
	s.settle(nw)
	if cap(out) < len(nw.Nodes) {
		out = make([]Report, len(nw.Nodes))
	}
	out = out[:len(nw.Nodes)]
	for i, n := range nw.Nodes {
		out[i] = n.sp.rep
	}
	return out
}
