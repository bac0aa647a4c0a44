package simnet

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mmx/internal/antenna"
	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/faults"
	"mmx/internal/mac"
	"mmx/internal/stats"
	"mmx/internal/tma"
	"mmx/internal/units"
)

// Node is one IoT device attached to the network.
type Node struct {
	ID      uint32
	Pose    channel.Pose
	Demand  float64
	Traffic TrafficModel
	// Assignment is the node's FDM channel; for SDM-sharing nodes it
	// mirrors the shared channel.
	Assignment mac.Assignment
	// SDMHarmonic is the TMA harmonic the node's angle-of-arrival maps
	// onto (the AP learns it during initialization). It is what
	// separates co-channel nodes.
	SDMHarmonic int
	// SDMShared reports the node shares its channel spatially rather
	// than owning it via FDM.
	SDMShared bool
	// RateBps is the node's adapted PHY rate: the fastest ladder step
	// its SNR sustains at BER ≤ 1e-6, capped by what its channel width
	// carries. Frames occupy airtime at this rate. 0 means the link
	// cannot close at any ladder step — the node is in outage and its
	// frames are dropped rather than transmitted at a hopeless rate.
	RateBps float64
	// Link is the node's OTAM link to its serving AP.
	Link *core.Link
	// AP is the access point currently serving the node — set at join,
	// switched by the roaming policy. nil on hand-built nodes, which
	// count as served by the network's first AP.
	AP *AccessPoint
	// Down marks a crashed node: it neither transmits nor renews its
	// lease until a FaultPlan reboot brings it back through the full
	// join handshake.
	Down bool
	// xlinks lazily caches the node's links toward non-serving APs, one
	// per AP index: the geometry its cross-AP interference contributions
	// and roam SNR estimates are evaluated over. On a roam the serving
	// link parks here and the cached link toward the new AP (if any) is
	// promoted, so link state is never rebuilt on a ping-pong.
	xlinks []*core.Link
	// roamHoldUntil is the sim time before which the roaming policy will
	// not move this node again (MinDwellS after the last attempt).
	roamHoldUntil float64
	// seq numbers the node's control-plane requests so the AP can
	// detect retransmissions and the node can discard stale replies.
	seq uint32
	// idx is the node's current position in Network.Nodes, maintained on
	// every membership change so lookups and the incremental coupling
	// paths never scan the slice. Stale the instant the node leaves.
	idx int
	// hc is the node's host-channel index entry (see hostchan.go): its
	// gain table at its serving AP and its registered channel, kept by
	// both coupling engines.
	hc hostEntry
	// sp is the node's sparse-coupling state (see coupling_sparse.go).
	// Zero-valued and untouched while the network runs the dense matrix.
	sp spNode
}

// Network is the full mmX deployment.
type Network struct {
	Env *channel.Environment
	// AP, APPattern, Controller and SDM mirror the first AP (APs[0]) so
	// the single-AP API is unchanged: AP is its pose, Controller its
	// spectrum books, SDM its time-modulated array. Multi-AP code reads
	// the registry instead.
	AP         channel.Pose
	APPattern  antenna.Pattern
	Controller *mac.Controller
	// SDM is the first AP's time-modulated array used when FDM runs out.
	SDM *tma.Array
	// APs is the AP registry: the construction-time AP at index 0 plus
	// every AddAP. Static once nodes join.
	APs []*AccessPoint
	// band is the full network band APs allocate from until PlanReuse
	// partitions it.
	band mac.Band
	// Roam, when non-nil in a multi-AP network, re-associates nodes
	// toward stronger APs during Run (see RoamPolicy).
	Roam *RoamPolicy
	// strays tracks leases known to be stranded mid-roam: the node moved
	// to a new AP but its release at the old one died on the side
	// channel, so the old books still show it until the lease TTL
	// reclaims it. ValidateSpectrum excuses exactly these entries from
	// the no-double-association invariant.
	strays map[uint32]*AccessPoint
	Nodes  []*Node
	// LinkCfg is the shared link budget template.
	LinkCfg core.LinkConfig
	// NodeBeams is the beam pair installed on every joining node
	// (defaults to the standard two-element orthogonal pair; a 60 GHz
	// deployment can use antenna.NewNarrowNodeBeams since the shorter
	// wavelength fits more elements in the same aperture).
	NodeBeams antenna.NodeBeams
	// ACLRAdjacentDB and ACLRFarDB set adjacent-channel leakage for FDM
	// neighbours (power ratio below the carrier).
	ACLRAdjacentDB, ACLRFarDB float64
	// Workers caps the evaluation engine's parallel fan-out: 0 uses
	// GOMAXPROCS, 1 forces the serial path. Parallel and serial results
	// are bit-identical (each node writes only its own output slot).
	Workers int
	// Control times the fault-tolerant control plane: retry/backoff for
	// the side-channel exchanges and the lease/renew keepalive cycle.
	Control ControlConfig
	// Side is the control side channel. nil is a perfect channel;
	// install a seeded faults.SideChannel to make the WiFi/Bluetooth
	// handshake lossy.
	Side *faults.SideChannel
	// Faults schedules in-run node crash/reboot and AP restart events.
	Faults *faults.Plan
	// ctrlRNG jitters the control plane's retry backoff without
	// perturbing the traffic RNG stream.
	ctrlRNG *stats.RNG
	rng     *stats.RNG
	// OnMembership, if non-nil, is invoked after every membership event
	// applied inside Run — "join" or "leave", with the node's ID — with
	// the network already in its post-event state. Tests and tools use
	// it to audit ValidateSpectrum after each event; it executes at the
	// sim clock inside the event loop, so keep it cheap and
	// deterministic.
	OnMembership func(event string, id uint32)
	// coupling caches the pairwise coupling matrix as linear power
	// factors (see coupling.go), built on the first dense evaluation and
	// updated incrementally after it; couplingDirty marks it unbuilt or
	// untrusted, so the next evaluation runs the full rebuild.
	coupling      []float64
	couplingDirty bool
	// couplingStats accumulates the bookkeeping work (CouplingStats).
	couplingStats CouplingStats
	// aclr caches the linear ACLR leakage factors for the pair kernel.
	aclr aclrCache
	// hosts is the host-channel index both coupling engines maintain
	// (hostchan.go).
	hosts chanIndex
	// onHostPick, when non-nil, observes every host-channel selection
	// with its result; tests check each pick against a reference scan.
	onHostPick func(ap *AccessPoint, n *Node, center float64, ok bool)
	// nodeIdx maps live node IDs to their membership entries, maintained
	// on every membership change, so ID lookups are O(1) at any scale.
	nodeIdx map[uint32]*Node
	// couplingMode selects dense vs sparse interference bookkeeping;
	// CouplingAuto switches to sparse when membership first reaches
	// sparseCrossover (see coupling_sparse.go).
	couplingMode CouplingMode
	// CouplingCutoffDB offsets the sparse path's edge-admission threshold
	// relative to each victim's noise floor: a pair whose worst-case
	// coupled power is provably below noise·10^(CouplingCutoffDB/10) is
	// never stored. 0 (the default) cuts exactly at the noise floor.
	CouplingCutoffDB float64
	// DisableRegionInvalidation turns off the sparse core's region-scoped
	// blockage invalidation: every environment epoch change falls back to
	// the stale-everything protocol (the whole membership re-evaluated per
	// tick). The results are identical either way — the toggle exists so
	// benchmarks and equivalence tests can measure the region path against
	// its own baseline.
	DisableRegionInvalidation bool
	// regionStats accumulates the sparse core's invalidation work over
	// the network's life (RegionStats).
	regionStats RegionStats
	// sparse is the live sparse coupling state, nil while dense.
	sparse *sparseState
	// evalScratch and powerScratch are the dense evaluation path's
	// retained intermediates, so steady-state EvaluateSINRInto calls stop
	// allocating them per call. xpowerScratch holds each node's received
	// power at every AP (row-major [ap][node]) and is only touched by
	// multi-AP runs — the single-AP loop never indexes it.
	evalScratch   []core.Evaluation
	powerScratch  []float64
	xpowerScratch []float64
	// run points at the live engine state while Run executes; membership
	// changes issued mid-run route through it onto the event heap.
	run *runState
	// pendingChurn holds ScheduleJoin/ScheduleLeave events planned
	// before Run starts; Run moves them onto its event heap.
	pendingChurn []churnEvent
}

// New builds a network in an environment with the AP at apPose, operating
// in the 24 GHz ISM band.
func New(env *channel.Environment, apPose channel.Pose, seed uint64) *Network {
	return NewWithBand(env, apPose, seed, mac.ISM24GHz())
}

// NewWithBand builds a network over an arbitrary spectrum band (e.g.
// mac.Unlicensed60GHz for the 7 GHz band §7a points to). The environment's
// carrier frequency should sit inside the band.
func NewWithBand(env *channel.Environment, apPose channel.Pose, seed uint64, band mac.Band) *Network {
	nw := &Network{
		Env:            env,
		AP:             apPose,
		APPattern:      antenna.NewAPAntenna(),
		Controller:     mac.NewController(band),
		SDM:            tma.NewSDMArray(16, 1e6),
		band:           band,
		LinkCfg:        core.DefaultLinkConfig(),
		NodeBeams:      antenna.NewNodeBeams(),
		ACLRAdjacentDB: 40,
		ACLRFarDB:      60,
		Control:        DefaultControlConfig(),
		ctrlRNG:        stats.NewRNG(seed ^ 0xC0117A01),
		rng:            stats.NewRNG(seed),
		nodeIdx:        make(map[uint32]*Node),
		strays:         make(map[uint32]*AccessPoint),
		couplingDirty:  true, // the dense cache is built on first read
	}
	nw.hosts.maxM = nw.SDM.MaxHarmonic()
	nw.Controller.LeaseTTL = nw.Control.LeaseTTLS
	// The registry's first entry aliases the legacy single-AP fields, so
	// AP-0 state reads identically through either view.
	nw.APs = []*AccessPoint{{
		Pose:       apPose,
		Pattern:    nw.APPattern,
		Controller: nw.Controller,
		SDM:        nw.SDM,
		Band:       band,
	}}
	return nw
}

// ErrJoinFailed reports a node the AP could not admit.
var ErrJoinFailed = errors.New("simnet: join failed")

// SetCouplingMode selects the interference bookkeeping strategy.
// CouplingAuto (the default) runs the dense matrix and switches to the
// sparse core when membership first reaches the crossover size;
// CouplingDense pins the golden-reference dense matrix (tearing down any
// live sparse state); CouplingSparse builds the sparse core immediately
// regardless of size.
func (nw *Network) SetCouplingMode(m CouplingMode) {
	nw.couplingMode = m
	switch m {
	case CouplingDense:
		if nw.sparse != nil {
			nw.sparse = nil
			nw.couplingDirty = true
		}
	case CouplingSparse:
		if nw.sparse == nil {
			nw.enterSparse()
		}
	}
}

// nodeByID returns the live membership entry for id, or nil. Membership
// is looked up by ID at event time — never by index captured earlier —
// so churn can reorder Nodes freely.
func (nw *Network) nodeByID(id uint32) *Node {
	return nw.nodeIdx[id]
}

// registerNode appends a node to the membership list and indexes it by ID.
// Every admission path (pre-run Join and in-run activation) goes through
// here so Node.idx and nodeIdx never drift from Nodes.
func (nw *Network) registerNode(n *Node) {
	n.idx = len(nw.Nodes)
	nw.Nodes = append(nw.Nodes, n)
	nw.nodeIdx[n.ID] = n
}

// unregisterNodeAt removes the node at index k. The shift-remove keeps
// the membership order stable (renewTick iteration order and the dense
// fingerprints depend on it); the trailing idx refresh is plain field
// writes, far cheaper than rebuilding a map.
func (nw *Network) unregisterNodeAt(k int) {
	n := nw.Nodes[k]
	nw.Nodes = append(nw.Nodes[:k], nw.Nodes[k+1:]...)
	delete(nw.nodeIdx, n.ID)
	for i := k; i < len(nw.Nodes); i++ {
		nw.Nodes[i].idx = i
	}
}

// Join runs the initialization protocol for one node (the WiFi/Bluetooth
// handshake of §7a) and installs it into the network. The handshake goes
// through the control side channel: with a lossy SideChannel installed it
// is driven by the retry state machine, and Join fails only when every
// attempt dies. A duplicate node ID — one already in the membership list,
// even crashed — is rejected with a wrapped ErrJoinFailed before any
// spectrum is touched.
//
// Called while Run is executing (from a traffic-model or OnMembership
// callback), the join becomes a membership event at the current sim
// clock: the handshake runs through the same retry machinery on the
// controller's anchored timeline, and the node goes on the air — joins
// the interference picture, starts its traffic, begins its presence
// interval — once the handshake's virtual time has elapsed.
func (nw *Network) Join(id uint32, pose channel.Pose, demandBps float64, traffic TrafficModel) (*Node, error) {
	if rs := nw.run; rs != nil {
		return rs.joinNow(id, pose, demandBps, traffic)
	}
	if nw.nodeByID(id) != nil {
		return nil, fmt.Errorf("%w: duplicate node ID %d", ErrJoinFailed, id)
	}
	n := &Node{ID: id, Pose: pose, Demand: demandBps, Traffic: traffic}
	n.AP = nw.selectAP(pose.Pos)
	ap := n.AP
	// The TMA hashes each node's angle-of-arrival into a harmonic slot;
	// the AP learns the slot when the node joins.
	nw.aim(n)
	if _, err := nw.handshake(n, ap.Controller.NowS()); err != nil {
		return nil, err
	}
	n.Link = core.NewLink(nw.Env, pose, ap.Pose)
	n.Link.Beams = nw.NodeBeams
	nw.applyAssignment(n)
	nw.registerNode(n)
	nw.couplingAddNode()
	return n, nil
}

// applyAssignment (re)derives a node's link configuration and adapted PHY
// rate from its current spectrum assignment — used at join and again when
// a release promotes the node from SDM sharer to FDM owner or a renew ack
// re-syncs it after an AP restart.
func (nw *Network) applyAssignment(n *Node) {
	cfg := nw.LinkCfg
	cfg.BandwidthHz = n.Assignment.WidthHz
	cfg.Modem.F0 = -n.Assignment.FSKOffsetHz / 2
	cfg.Modem.F1 = +n.Assignment.FSKOffsetHz / 2
	n.Link.Cfg = cfg
	// Adapt the PHY rate to the link (switch-speed scaling, §5.1),
	// bounded by what the allocated channel width can carry. Rate 0 —
	// the ladder cannot close the link at all — marks the node in
	// outage; Run drops its frames instead of transmitting hopelessly.
	n.RateBps = nw.cappedRate(n, n.Link.AdaptRate(1e-6))
}

// cappedRate bounds an adapted ladder rate by what the node's allocated
// channel width can carry.
func (nw *Network) cappedRate(n *Node, rate float64) float64 {
	if rateCap := n.Assignment.WidthHz / 1.25; rate > rateCap {
		return rateCap
	}
	return rate
}

// Leave removes a node and releases its spectrum churn-safely: if the
// leaver was the FDM owner of a channel that SDM sharers still occupy, the
// controller promotes the widest sharer to owner (PromoteMsg) instead of
// returning the occupied channel to the free pool, and the promoted node
// is flipped to exclusive operation here.
//
// Called while Run is executing, the leave becomes a membership event at
// the current sim clock: the release rides the retry machinery over the
// (possibly lossy) side channel, promote pushes are delivered lossily
// like any in-run notification (a lost one heals at the promoted node's
// next renew ack), and the leaver's presence interval closes for the
// run's stats.
func (nw *Network) Leave(id uint32) {
	if rs := nw.run; rs != nil {
		rs.leaveNow(id)
		return
	}
	leaver := nw.nodeByID(id)
	if leaver != nil {
		ap := nw.hostAP(leaver)
		removedAt := leaver.idx
		nw.unregisterNodeAt(removedAt)
		nw.couplingRemoveNode(leaver, removedAt)
		// Best-effort release through the retry machine: if every attempt
		// dies on the side channel the lease TTL reclaims the spectrum.
		leaver.seq++
		nw.transact(ap, mac.ReleaseMsg{NodeID: id, Seq: leaver.seq}, ap.Controller.NowS()) //nolint:errcheck
		delete(nw.strays, id)
		// The leaver is gone from the membership list, so the promote
		// push (if any) is delivered reliably to whichever sharer it
		// names.
		nw.pushNotifications(ap, true)
	} else {
		// Unknown ID: the release may target any AP's stale entry, so
		// hand it to every controller (a release of an unknown node is a
		// stale no-op at the others).
		raw, _ := mac.Marshal(mac.ReleaseMsg{NodeID: id})
		for _, ap := range nw.APs {
			ap.Controller.Handle(raw) //nolint:errcheck
			nw.pushNotifications(ap, true)
		}
	}
}

// applyPromotion installs a PromoteMsg pushed by AP ap after a release:
// the named SDM sharer becomes the exclusive owner of (part of) the
// channel it shared. A node that roamed away since the push was queued
// ignores it — its spectrum now lives at another AP. It reports whether
// a live node actually adopted the promotion.
func (nw *Network) applyPromotion(ap *AccessPoint, reply []byte) bool {
	if len(reply) == 0 {
		return false
	}
	msg, err := mac.Unmarshal(reply)
	if err != nil {
		return false
	}
	p, ok := msg.(mac.PromoteMsg)
	if !ok {
		return false
	}
	n := nw.nodeByID(p.NodeID)
	if n == nil || nw.hostAP(n) != ap {
		return false
	}
	n.SDMShared = false
	n.Assignment = mac.Assignment{
		NodeID: p.NodeID, CenterHz: p.CenterHz,
		WidthHz: p.WidthHz, FSKOffsetHz: p.FSKOffsetHz,
	}
	nw.applyAssignment(n)
	nw.couplingUpdateNode(n)
	return true
}

// MoveNode repositions a live node (a camera carried across the room) and
// refreshes everything pose-dependent: the OTAM link geometry, the node's
// gain table and TMA harmonic slot, and the coupling state. The coupling
// refresh is incremental — one gain table plus one row/column recompute
// (couplingMoveNode), not the full-rebuild invalidation earlier revisions
// paid per motion event. The association itself does not change here:
// a node carried toward another AP re-homes at the roaming policy's next
// check, not mid-motion. It reports whether the node exists. Safe during
// Run — membership does not change.
func (nw *Network) MoveNode(id uint32, pose channel.Pose) bool {
	n := nw.nodeByID(id)
	if n == nil {
		return false
	}
	n.Pose = pose
	n.Link.Node = pose
	for _, l := range n.xlinks {
		if l != nil {
			l.Node = pose
		}
	}
	nw.aim(n)
	nw.couplingMoveNode(n)
	return true
}

// ValidateSpectrum cross-checks the network's spectrum state against the
// MAC layer's books, per AP: allocator invariants hold at every AP, every
// FDM owner's assignment matches its serving AP's record, every SDM
// sharer is registered with its serving AP's controller on the channel it
// actually occupies, and no two exclusive (non-SDM) channels at the same
// AP overlap (cross-AP overlap is legal — that is what frequency reuse
// and distance-bounded interference are for). In a multi-AP network it
// additionally asserts the roaming invariant: no live node holds leases
// at two APs at once, except for the tracked mid-roam strays whose
// release died on the side channel and whose lease TTL is reclaiming
// them. It returns nil when consistent — the property the churn and roam
// lifecycles preserve.
func (nw *Network) ValidateSpectrum() error {
	for _, ap := range nw.APs {
		if err := ap.Controller.Alloc.Validate(); err != nil {
			if len(nw.APs) > 1 {
				return fmt.Errorf("simnet: AP %d: %w", ap.idx, err)
			}
			return err
		}
	}
	for _, n := range nw.Nodes {
		if n.Down {
			// A crashed node holds no books entry once its lease expires
			// and transmits nothing — it cannot violate the spectrum
			// invariants.
			continue
		}
		ap := nw.hostAP(n)
		if n.SDMShared {
			c, ok := ap.Controller.SharerChannel(n.ID)
			if !ok {
				return fmt.Errorf("simnet: SDM node %d not registered with the controller", n.ID)
			}
			if c != n.Assignment.CenterHz {
				return fmt.Errorf("simnet: SDM node %d confirmed on %.0f Hz but occupies %.0f Hz",
					n.ID, c, n.Assignment.CenterHz)
			}
			continue
		}
		a, ok := ap.Controller.Alloc.Lookup(n.ID)
		if !ok {
			return fmt.Errorf("simnet: exclusive node %d holds no allocation", n.ID)
		}
		if a.CenterHz != n.Assignment.CenterHz || a.WidthHz != n.Assignment.WidthHz {
			return fmt.Errorf("simnet: node %d assignment drifted from the allocator", n.ID)
		}
	}
	if len(nw.APs) == 1 {
		return nw.checkExclusiveOverlap(nw.Nodes)
	}
	// Roaming invariant: walking each AP's leaseholders costs O(total
	// leases), not O(nodes × APs). A leaseholder served elsewhere is a
	// double association unless it is a known stray (mid-roam release
	// loss) — those ride the TTL by design — or has already departed.
	for _, ap := range nw.APs {
		for _, id := range ap.Controller.Leaseholders() {
			n := nw.nodeByID(id)
			if n == nil || nw.hostAP(n) == ap {
				continue
			}
			if nw.strays[id] == ap {
				continue
			}
			return fmt.Errorf("simnet: node %d double-associated: leases at AP %d while served by AP %d",
				id, ap.idx, nw.hostAP(n).idx)
		}
	}
	perAP := make([][]*Node, len(nw.APs))
	for _, n := range nw.Nodes {
		k := n.apIndex()
		perAP[k] = append(perAP[k], n)
	}
	for _, nodes := range perAP {
		if err := nw.checkExclusiveOverlap(nodes); err != nil {
			return err
		}
	}
	return nil
}

// checkExclusiveOverlap verifies no two live exclusive (non-SDM) channels
// overlap. Sorting by Low() reduces the check to adjacent comparisons —
// if any pair overlapped, the pair adjacent in sorted order would too
// (the later channel starts before the earlier one ends) — so validation
// is O(n log n) instead of the O(n²) pairwise scan that made
// `mmx-sim -validate` unusable at 100k nodes.
func (nw *Network) checkExclusiveOverlap(nodes []*Node) error {
	excl := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		if n.SDMShared || n.Down {
			continue
		}
		excl = append(excl, n)
	}
	sort.Slice(excl, func(i, j int) bool {
		return excl[i].Assignment.Low() < excl[j].Assignment.Low()
	})
	for i := 1; i < len(excl); i++ {
		a, b := excl[i-1], excl[i]
		// Same 1 µHz tolerance as Allocator.Validate, so exactly
		// abutting channels don't trip on float rounding.
		if b.Assignment.Low() < a.Assignment.High()-1e-6 {
			return fmt.Errorf("simnet: exclusive channels of nodes %d and %d overlap", a.ID, b.ID)
		}
	}
	return nil
}

// Report is one node's instantaneous link quality within the network.
type Report struct {
	ID uint32
	// SNRdB is the node's isolated OTAM link SNR (no interference).
	SNRdB float64
	// SINRdB folds in interference from every other node.
	SINRdB float64
	// BER is the joint ASK-FSK error rate at the SINR.
	BER float64
	// PathClass is "los", "nlos", or "blocked".
	PathClass string
	// SDM reports that this node shares spectrum via the TMA.
	SDM bool
}

// freqCouplingDB classifies the FDM relationship between two channels.
// ok is false when the channels overlap (co-channel); otherwise the
// returned value is the adjacent- or far-channel leakage, decided by the
// actual edge-to-edge distance: a neighbour closer than the narrower
// channel's width leaks at ACLRAdjacentDB, anything farther at ACLRFarDB.
// (Comparing center separation against channel-width sums, as earlier
// revisions did, misclassifies unequal-width neighbours.)
func (nw *Network) freqCouplingDB(i, j *Node) (float64, bool) {
	sep := math.Abs(i.Assignment.CenterHz - j.Assignment.CenterHz)
	halfWidths := (i.Assignment.WidthHz + j.Assignment.WidthHz) / 2
	if sep < halfWidths {
		return 0, false
	}
	edgeGap := sep - halfWidths
	if edgeGap < math.Min(i.Assignment.WidthHz, j.Assignment.WidthHz) {
		return nw.ACLRAdjacentDB, true
	}
	return nw.ACLRFarDB, true
}

// tmaSuppressionDB converts a transmitter's own-harmonic and leaked
// amplitudes into the [0,150] dB suppression figure.
func tmaSuppressionDB(own, leak float64) float64 {
	if own <= 0 {
		return 0
	}
	if leak <= 0 {
		return 150
	}
	supp := 20 * math.Log10(own/leak)
	if supp < 0 {
		supp = 0
	}
	if supp > 150 {
		supp = 150
	}
	return supp
}

// crossLink returns node n's cached link toward the AP at index a,
// creating it on first use. Cross links carry the geometry for cross-AP
// interference contributions and roam SNR estimates; only their gains
// matter, so the default link config they are born with is never
// re-derived from assignments.
func (nw *Network) crossLink(n *Node, a int) *core.Link {
	if len(n.xlinks) < len(nw.APs) {
		grown := make([]*core.Link, len(nw.APs))
		copy(grown, n.xlinks)
		n.xlinks = grown
	}
	l := n.xlinks[a]
	if l == nil {
		l = core.NewLink(nw.Env, n.Pose, nw.APs[a].Pose)
		l.Beams = nw.NodeBeams
		n.xlinks[a] = l
	}
	return l
}

// crossPower evaluates node n's peak received power at the AP at index a
// — the interference it injects into that AP's receive domain.
func (nw *Network) crossPower(n *Node, a int) float64 {
	ev := nw.crossLink(n, a).EvaluateWithClass()
	g := math.Max(cmplx.Abs(ev.G0), cmplx.Abs(ev.G1))
	return g * g
}

// forEachNode runs fn(i) for every i in [0,n), fanned out across the
// network's worker pool. Each index writes only its own output slot, so
// results are bit-identical to the serial loop regardless of scheduling.
func (nw *Network) forEachNode(n int, fn func(i int)) {
	workers := nw.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// EvaluateSINR computes every node's current SNR and SINR. The per-node
// link evaluations and interference sums fan out across the worker pool
// (Workers), each node's gains and path class come from one shared path
// enumeration (Link.EvaluateWithClass), and the pairwise coupling matrix
// is served from the cache in linear form — rebuilt only after
// membership, pose or assignment changes, not per call.
func (nw *Network) EvaluateSINR() []Report {
	return nw.EvaluateSINRInto(nil)
}

// EvaluateSINRInto is EvaluateSINR with caller-owned report storage:
// out's capacity is reused when it fits the membership (pass nil to
// allocate fresh). The dense path's evaluation and power intermediates
// are retained on the network between calls, so a steady-state caller —
// Run's per-tick refresh — contributes nothing to the allocation
// footprint.
func (nw *Network) EvaluateSINRInto(out []Report) []Report {
	if nw.sparse != nil {
		return nw.sparse.evaluateInto(nw, out)
	}
	n := len(nw.Nodes)
	nw.ensureCoupling()
	if cap(nw.evalScratch) < n {
		nw.evalScratch = make([]core.Evaluation, n)
		nw.powerScratch = make([]float64, n)
	}
	evals := nw.evalScratch[:n]
	powers := nw.powerScratch[:n] // peak received power, watts
	nAPs := len(nw.APs)
	multi := nAPs > 1
	var xp []float64
	if multi {
		// Each transmitter's power lands differently at each AP's
		// receive array; xp[a*n+j] is node j's power at AP a. The
		// serving-AP entry aliases powers[j], so the interference sum
		// below reads one uniform table.
		if cap(nw.xpowerScratch) < nAPs*n {
			nw.xpowerScratch = make([]float64, nAPs*n)
		}
		xp = nw.xpowerScratch[:nAPs*n]
	}
	nw.forEachNode(n, func(i int) {
		node := nw.Nodes[i]
		if node.Down {
			// Crashed: no carrier on the air, so no interference
			// contribution and nothing to evaluate.
			powers[i] = 0
			if multi {
				for a := 0; a < nAPs; a++ {
					xp[a*n+i] = 0
				}
			}
			return
		}
		evals[i] = node.Link.EvaluateWithClass()
		g := math.Max(cmplx.Abs(evals[i].G0), cmplx.Abs(evals[i].G1))
		powers[i] = g * g
		if multi {
			ai := node.apIndex()
			for a := 0; a < nAPs; a++ {
				if a == ai {
					xp[a*n+i] = powers[i]
					continue
				}
				xp[a*n+i] = nw.crossPower(node, a)
			}
		}
	})
	if cap(out) < n {
		out = make([]Report, n)
	}
	out = out[:n]
	nw.forEachNode(n, func(i int) {
		node := nw.Nodes[i]
		if node.Down {
			out[i] = Report{
				ID: node.ID, SNRdB: math.Inf(-1), SINRdB: math.Inf(-1),
				BER: 1, PathClass: "down", SDM: node.SDMShared,
			}
			return
		}
		noise := evals[i].NoisePowerW
		interf := 0.0
		row := nw.coupling[i*n : (i+1)*n]
		if multi {
			// The victim listens at its serving AP: weigh every
			// interferer by its power at that AP.
			xrow := xp[node.apIndex()*n:]
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				interf += xrow[j] * row[j]
			}
		} else {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				interf += powers[j] * row[j]
			}
		}
		sinr := units.DB(powers[i] / (noise + interf))
		ev := evals[i]
		ev.SNRWithOTAM = sinr
		out[i] = Report{
			ID:        node.ID,
			SNRdB:     units.DB(powers[i] / noise),
			SINRdB:    sinr,
			BER:       ev.BERWithOTAM(),
			PathClass: ev.PathClass,
			SDM:       node.SDMShared,
		}
	})
	return out
}

// MeanSINRdB averages the current per-node SINR — the y-axis of Fig. 13.
func (nw *Network) MeanSINRdB() float64 {
	reports := nw.EvaluateSINR()
	if len(reports) == 0 {
		return math.Inf(-1)
	}
	s := 0.0
	for _, r := range reports {
		s += r.SINRdB
	}
	return s / float64(len(reports))
}
