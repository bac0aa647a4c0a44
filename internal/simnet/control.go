package simnet

import (
	"fmt"

	"mmx/internal/faults"
	"mmx/internal/mac"
	"mmx/internal/netctl"
)

// ControlConfig sets the timing of the fault-tolerant control plane: the
// node-side retry state machine and the lease/renew keepalive cycle.
type ControlConfig struct {
	// TimeoutS is how long a node waits for a reply before retrying.
	TimeoutS float64
	// MaxAttempts bounds the retry state machine per exchange.
	MaxAttempts int
	// Backoff paces the retries (capped exponential + seeded jitter).
	Backoff faults.Backoff
	// LeaseTTLS is the spectrum lease lifetime: a node silent for longer
	// is expired and its spectrum reclaimed. 0 disables expiry.
	LeaseTTLS float64
	// RenewIntervalS is the keepalive period; it must be comfortably
	// below LeaseTTLS so a few lost renews don't kill a live node's
	// lease.
	RenewIntervalS float64
}

// DefaultControlConfig returns the timing used throughout the tests and
// examples: 20 ms reply timeout, 8 attempts with 20 ms → 500 ms doubling
// backoff at ±25% jitter, 1 s leases renewed every 300 ms.
func DefaultControlConfig() ControlConfig {
	return ControlConfig{
		TimeoutS:       0.02,
		MaxAttempts:    8,
		Backoff:        faults.Backoff{BaseS: 0.02, MaxS: 0.5, Factor: 2, Jitter: 0.25},
		LeaseTTLS:      1.0,
		RenewIntervalS: 0.3,
	}
}

// retrier adapts the control timing onto the shared netctl retry state
// machine. Sleep stays nil: the simulator runs on virtual time, so the
// machine's elapsed accounting (one TimeoutS plus one jittered backoff
// draw per failed attempt) is the time that passes.
func (cc ControlConfig) retrier() netctl.Retrier {
	return netctl.Retrier{
		TimeoutS:    cc.TimeoutS,
		MaxAttempts: cc.MaxAttempts,
		Backoff:     cc.Backoff,
	}
}

// transact runs one request/reply exchange over the (possibly lossy)
// control side channel: marshal, transmit, collect the reply, and on
// loss retry through netctl.Retrier — the same state machine the socket
// client runs on real time, here fed virtual-time attempts. It returns
// the decoded reply, the virtual time the exchange consumed, and an
// error (netctl.ErrExhausted) when every attempt failed. Duplicate
// request copies are deliberately all delivered to the controller —
// that is what exercises its idempotent handling — and duplicate or
// stale replies (wrong sequence number) are discarded by the
// caller-side match.
func (nw *Network) transact(ap *AccessPoint, req any, at float64) (any, float64, error) {
	raw, err := mac.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	node, seq, _ := mac.RequestIdent(req)
	return nw.Control.retrier().Do(nw.ctrlRNG, func(_ int, elapsed float64) (any, float64, bool) {
		return nw.exchange(ap, raw, node, seq, at+elapsed)
	})
}

// exchange is one attempt: the request goes through the side channel
// (drop/duplicate/truncate/delay), every arriving copy is handled by the
// controller (truncated copies fail to parse and die there), and each
// reply goes back through the side channel. The first reply copy whose
// identity matches (node, seq) and whose round trip fits the timeout
// wins.
func (nw *Network) exchange(ap *AccessPoint, raw []byte, node, seq uint32, at float64) (any, float64, bool) {
	requests := nw.Side.Transmit(raw)
	if ap.down {
		// The AP is rebooting: frames fall on deaf ears.
		return nil, 0, false
	}
	var reply any
	var rtt float64
	got := false
	for _, rd := range requests {
		replyRaw, err := ap.Controller.HandleAt(rd.Frame, at+rd.DelayS)
		if err != nil || replyRaw == nil {
			continue // garbled on the air, or not a replyable message
		}
		for _, dd := range nw.Side.Transmit(replyRaw) {
			if got {
				continue // duplicate reply: discarded by the node
			}
			msg, err := mac.Unmarshal(dd.Frame)
			if err != nil {
				continue
			}
			rn, rs, ok := mac.ReplyIdent(msg)
			if !ok || rn != node || rs != seq {
				continue // stale or misaddressed reply: discarded
			}
			if total := rd.DelayS + dd.DelayS; total <= nw.Control.TimeoutS {
				reply, rtt, got = msg, total, true
			}
		}
	}
	return reply, rtt, got
}

// handshake drives the full join exchange for node n at its serving AP
// starting at virtual time at: a JoinRequest with retries, then — when
// rejected into SDM — TMA-aware host-channel placement and a
// ShareConfirm with retries. On success n.Assignment and n.SDMShared
// reflect the grant. It returns the virtual time the handshake consumed.
func (nw *Network) handshake(n *Node, at float64) (float64, error) {
	ap := nw.hostAP(n)
	n.seq++
	reply, took, err := nw.transact(ap, mac.JoinRequest{NodeID: n.ID, Seq: n.seq, DemandBps: n.Demand}, at)
	if err != nil {
		return took, fmt.Errorf("%w: %v", ErrJoinFailed, err)
	}
	switch m := reply.(type) {
	case mac.AssignmentMsg:
		n.SDMShared = false
		n.Assignment = mac.Assignment{
			NodeID: n.ID, CenterHz: m.CenterHz, WidthHz: m.WidthHz, FSKOffsetHz: m.FSKOffsetHz,
		}
	case mac.RejectMsg:
		n.SDMShared = true
		width := mac.BandwidthForRate(n.Demand)
		n.Assignment = mac.Assignment{
			NodeID: n.ID, CenterHz: m.ShareHz, WidthHz: width, FSKOffsetHz: width * 0.05,
		}
		// The reject carries a nominal host channel, but the AP knows
		// every occupant's harmonic slot: place the newcomer on the
		// channel whose occupants are farthest from its slot so the
		// TMA can actually separate them.
		if c, ok := nw.bestHostChannel(ap, n); ok {
			n.Assignment.CenterHz = c
		}
		// Report the final placement back so the AP's spectrum books
		// track where the sharer really landed — this is what lets the
		// controller promote (rather than re-grant) the channel when
		// its FDM owner later leaves.
		n.seq++
		confirm := mac.ShareConfirmMsg{
			NodeID:   n.ID,
			Seq:      n.seq,
			ShareHz:  n.Assignment.CenterHz,
			WidthHz:  n.Assignment.WidthHz,
			Harmonic: int8(n.SDMHarmonic),
		}
		_, t2, err := nw.transact(ap, confirm, at+took)
		took += t2
		if err != nil {
			// The placement is chosen but the AP never heard the
			// confirm: the node operates on it anyway and the books
			// heal at the next renew (nack → rejoin).
			return took, fmt.Errorf("%w: %v", ErrJoinFailed, err)
		}
	default:
		return took, ErrJoinFailed
	}
	return took, nil
}

// renewResult tags what a keepalive cycle did for one node.
type renewResult uint8

const (
	renewOK renewResult = iota
	renewResynced
	renewRejoined
	renewLost
	renewFailed
)

// renewOnce runs one lease keepalive for node n at virtual time at. The
// ack doubles as a state sync: if the AP's books disagree with the
// node's local assignment (a PromoteMsg was lost, or the node was moved
// by a post-restart reallocation), the node adopts the AP's view. A nack
// means the lease is gone — expired or wiped by an AP restart — and the
// node rejoins through the full handshake. A timeout leaves the node
// transmitting on its last-known assignment (graceful degradation) until
// the next keepalive.
func (nw *Network) renewOnce(n *Node, at float64) renewResult {
	n.seq++
	reply, took, err := nw.transact(nw.hostAP(n), mac.RenewMsg{NodeID: n.ID, Seq: n.seq}, at)
	if err != nil {
		return renewFailed
	}
	switch m := reply.(type) {
	case mac.RenewAckMsg:
		if m.Shared == n.SDMShared &&
			m.CenterHz == n.Assignment.CenterHz &&
			m.WidthHz == n.Assignment.WidthHz {
			return renewOK
		}
		n.SDMShared = m.Shared
		n.Assignment = mac.Assignment{
			NodeID: n.ID, CenterHz: m.CenterHz, WidthHz: m.WidthHz, FSKOffsetHz: m.FSKOffsetHz,
		}
		nw.applyAssignment(n)
		nw.couplingUpdateNode(n)
		return renewResynced
	case mac.RenewNackMsg:
		if _, err := nw.handshake(n, at+took); err != nil {
			return renewLost
		}
		nw.applyAssignment(n)
		nw.couplingUpdateNode(n)
		return renewRejoined
	default:
		return renewFailed
	}
}

// pushNotifications delivers one AP controller's queued PromoteMsg pushes
// through the side channel. A push that the channel drops is simply
// lost — the promoted node keeps operating as a sharer until its next
// renew ack re-syncs it.
func (nw *Network) pushNotifications(ap *AccessPoint, reliable bool) (applied int) {
	for _, note := range ap.Controller.TakeNotifications() {
		if reliable {
			if nw.applyPromotion(ap, note) {
				applied++
			}
			continue
		}
		for _, d := range nw.Side.Transmit(note) {
			if len(d.Frame) == len(note) && nw.applyPromotion(ap, d.Frame) {
				applied++
				break
			}
		}
	}
	return applied
}
