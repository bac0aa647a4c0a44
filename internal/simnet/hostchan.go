package simnet

import (
	"math"
	"math/cmplx"
)

// This file owns the host-channel index: each AP's live channels with
// their occupants bucketed by TMA harmonic slot. Both coupling engines
// maintain it from the first join through the same membership, move,
// update and roam hooks (coupling.go), and both read it:
//
//   - bestHostChannel places an SDM sharer in O(#channels) per call from
//     per-channel suppression minima, instead of scanning the membership;
//   - every node's gain table at its serving AP lives on its index entry,
//     so the dense matrix and the sparse pair kernel read the same table;
//   - the sparse core's outbound discovery walks the per-AP channel lists
//     to find co-channel and adjacent-channel victims.

// hostEntry is a node's record in the host-channel index.
type hostEntry struct {
	// tbl is the node's TMA gain table at its angle of arrival at its
	// serving AP; avec[k] is the suppression a victim listening on
	// harmonic slot k sees from this node (tmaSuppressionDB of own vs
	// leaked amplitude). aim keeps both current with pose and association.
	tbl  []complex128
	avec []float64
	// cs is the channel the node is registered on (nil while detached),
	// harm its harmonic slot there and slot its position in that bucket.
	cs   *chanState
	harm int
	slot int
}

// chanState is the index entry for one channel center at one AP: its
// occupants bucketed by harmonic slot, and the per-slot minimum of the
// occupants' avec vectors (minA) that makes bestHostChannel O(#channels)
// per call.
type chanState struct {
	center   float64
	maxWidth float64 // never shrunk: conservative for the sparse class screen
	ap       int     // owning shard: occupants are served by this AP
	count    int
	occ      [][]*Node
	minA     []float64
	// minADirty marks minA for lazy rebuild after an occupant left
	// (removals can raise a minimum; additions only lower it).
	minADirty bool
	listIdx   int
}

// chanShard is one AP's slice of the index: only nodes served by that AP
// live in its channels, so a host-channel search is bounded by the AP's
// own channels.
type chanShard struct {
	chans    map[float64]*chanState
	chanList []*chanState
}

// chanIndex is the per-network host-channel index, one shard per AP.
type chanIndex struct {
	maxM   int
	shards []chanShard
}

// aim points node n's harmonic state at its serving AP: its gain table
// at the angle of arrival, the strongest harmonic slot in that table
// (the slot the AP learns for it), and the suppression vector derived
// from both. Join, MoveNode and a roam's re-homing call it; the index
// entry is refreshed in place, so one table is computed per pose or
// association change.
func (nw *Network) aim(n *Node) {
	ap := nw.hostAP(n)
	tbl := ap.SDM.GainTableInto(n.hc.tbl, ap.Pose.AngleTo(n.Pose.Pos))
	n.hc.tbl = tbl
	n.SDMHarmonic = ap.SDM.StrongestHarmonic(tbl)
	if cap(n.hc.avec) < len(tbl) {
		n.hc.avec = make([]float64, len(tbl))
	}
	n.hc.avec = n.hc.avec[:len(tbl)]
	own := cmplx.Abs(tbl[n.SDMHarmonic+ap.SDM.MaxHarmonic()])
	for k := range n.hc.avec {
		n.hc.avec[k] = tmaSuppressionDB(own, cmplx.Abs(tbl[k]))
	}
}

// register files node n under its current channel and harmonic slot at
// its serving AP.
func (ix *chanIndex) register(n *Node) {
	a := n.apIndex()
	for len(ix.shards) <= a {
		ix.shards = append(ix.shards, chanShard{chans: make(map[float64]*chanState)})
	}
	sh := &ix.shards[a]
	c := n.Assignment.CenterHz
	cs := sh.chans[c]
	if cs == nil {
		slots := 2*ix.maxM + 1
		cs = &chanState{
			center:  c,
			ap:      a,
			occ:     make([][]*Node, slots),
			minA:    make([]float64, slots),
			listIdx: len(sh.chanList),
		}
		for k := range cs.minA {
			cs.minA[k] = math.Inf(1)
		}
		sh.chans[c] = cs
		sh.chanList = append(sh.chanList, cs)
	}
	if n.Assignment.WidthHz > cs.maxWidth {
		cs.maxWidth = n.Assignment.WidthHz
	}
	h := n.SDMHarmonic + ix.maxM
	n.hc.cs = cs
	n.hc.harm = h
	n.hc.slot = len(cs.occ[h])
	cs.occ[h] = append(cs.occ[h], n)
	cs.count++
	for k := range cs.minA {
		if n.hc.avec[k] < cs.minA[k] {
			cs.minA[k] = n.hc.avec[k]
		}
	}
}

// unregister removes node n from its channel, dropping the channel once
// it has no occupants left. A detached node is a no-op.
func (ix *chanIndex) unregister(n *Node) {
	cs := n.hc.cs
	if cs == nil {
		return
	}
	h, sl := n.hc.harm, n.hc.slot
	lst := cs.occ[h]
	last := len(lst) - 1
	if sl != last {
		lst[sl] = lst[last]
		lst[sl].hc.slot = sl
	}
	lst[last] = nil
	cs.occ[h] = lst[:last]
	cs.count--
	cs.minADirty = true
	n.hc.cs = nil
	if cs.count == 0 {
		sh := &ix.shards[cs.ap]
		li := cs.listIdx
		lastC := len(sh.chanList) - 1
		if li != lastC {
			sh.chanList[li] = sh.chanList[lastC]
			sh.chanList[li].listIdx = li
		}
		sh.chanList[lastC] = nil
		sh.chanList = sh.chanList[:lastC]
		delete(sh.chans, cs.center)
	}
}

// reregister moves node n to the bucket its current assignment, harmonic
// and association name.
func (ix *chanIndex) reregister(n *Node) {
	ix.unregister(n)
	ix.register(n)
}

// channels returns AP a's live channels (nil before its first occupant).
func (ix *chanIndex) channels(a int) []*chanState {
	if a >= len(ix.shards) {
		return nil
	}
	return ix.shards[a].chanList
}

func (ix *chanIndex) rebuildMinA(cs *chanState) {
	for k := range cs.minA {
		cs.minA[k] = math.Inf(1)
	}
	for _, lst := range cs.occ {
		for _, v := range lst {
			for k := range cs.minA {
				if v.hc.avec[k] < cs.minA[k] {
					cs.minA[k] = v.hc.avec[k]
				}
			}
		}
	}
	cs.minADirty = false
}

// bestHostChannel picks, among the channels live at AP ap, the one whose
// occupants that AP's TMA can best separate from node n — maximizing the
// worst-case pairwise suppression. Only nodes served by ap count as
// occupants (crashed ones included: they still hold their slot), since
// co-channel nodes at other APs are interference bounded by distance,
// not schedule mates. n itself never counts, so a node re-running the
// handshake (reboot, post-restart rejoin, roam fallback) doesn't see its
// own stale entry. ok is false when the AP hosts no channels yet. n must
// be aimed at ap.
//
// Per channel, the worst-case suppression against n is
//
//	min over occupants v of min(a_v, b_v)
//	  = min( min_v a_v , min_v b_v )
//	  = min( minA[h] , min over occupied slots k of n.avec[k] )
//
// with a_v = v.avec[h] the occupant-side leak into n's slot h (folded
// into the channel's minA) and b_v = n.avec[v's slot] the newcomer-side
// leak. Float min is exact and order-free, and the selection is a strict
// total order on (suppression, occupants, center), so the pick does not
// depend on index order. n's own channel falls back to a direct
// occupant scan that skips it.
func (nw *Network) bestHostChannel(ap *AccessPoint, n *Node) (float64, bool) {
	ix := &nw.hosts
	chanList := ix.channels(ap.idx)
	h := n.SDMHarmonic + ix.maxM
	bvec := n.hc.avec
	exNode := nw.nodeIdx[n.ID]
	bestCenter, found := 0.0, false
	bestSupp, bestOcc := 0.0, 0
	for _, cs := range chanList {
		occ := cs.count
		var supp float64
		if exNode != nil && exNode.hc.cs == cs {
			occ--
			if occ == 0 {
				continue // an empty channel hosts nobody to separate from
			}
			supp = math.Inf(1)
			for _, lst := range cs.occ {
				for _, v := range lst {
					if v == exNode {
						continue
					}
					m := math.Min(v.hc.avec[h], bvec[v.hc.harm])
					if m < supp {
						supp = m
					}
				}
			}
		} else {
			if cs.minADirty {
				ix.rebuildMinA(cs)
			}
			supp = cs.minA[h]
			for k, lst := range cs.occ {
				if len(lst) > 0 && bvec[k] < supp {
					supp = bvec[k]
				}
			}
		}
		better := !found ||
			supp > bestSupp ||
			(supp == bestSupp && occ < bestOcc) ||
			(supp == bestSupp && occ == bestOcc && cs.center < bestCenter)
		if better {
			bestCenter, bestSupp, bestOcc, found = cs.center, supp, occ, true
		}
	}
	if nw.onHostPick != nil {
		nw.onHostPick(ap, n, bestCenter, found)
	}
	return bestCenter, found
}
