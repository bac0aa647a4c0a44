package simnet

import (
	"math"
	"math/cmplx"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/faults"
	"mmx/internal/stats"
)

// pairSuppressionDB returns the worse-direction TMA suppression between
// two co-channel transmitters at the same AP: how far each one's energy
// sits below the other's slot, given their harmonics and angles of
// arrival at that AP's array.
func pairSuppressionDB(ap *AccessPoint, mi int, thI float64, mj int, thJ float64) float64 {
	into := func(mVictim int, mOwn int, th float64) float64 {
		own := cmplx.Abs(ap.SDM.HarmonicGain(mOwn, th))
		leak := cmplx.Abs(ap.SDM.HarmonicGain(mVictim, th))
		return tmaSuppressionDB(own, leak)
	}
	a := into(mi, mj, thJ) // j leaking into i's slot
	b := into(mj, mi, thI) // i leaking into j's slot
	return math.Min(a, b)
}

// hostChannelScan is the reference host-channel selection the index
// replaces: scan every member, keep those served by ap (crashed ones
// included) other than n itself, group them by channel center from their
// live fields, and pick the channel with the largest worst-case pairwise
// suppression against n, ties broken by fewer occupants, then the lower
// center.
func hostChannelScan(nw *Network, ap *AccessPoint, n *Node) (float64, bool) {
	h, th := n.SDMHarmonic, ap.Pose.AngleTo(n.Pose.Pos)
	type chanInfo struct {
		worstSupp float64
		occupants int
	}
	byCenter := map[float64]*chanInfo{}
	for _, m := range nw.Nodes {
		if m.ID == n.ID || nw.hostAP(m) != ap {
			continue
		}
		ci := byCenter[m.Assignment.CenterHz]
		if ci == nil {
			ci = &chanInfo{worstSupp: math.Inf(1)}
			byCenter[m.Assignment.CenterHz] = ci
		}
		s := pairSuppressionDB(ap, h, th, m.SDMHarmonic, ap.Pose.AngleTo(m.Pose.Pos))
		if s < ci.worstSupp {
			ci.worstSupp = s
		}
		ci.occupants++
	}
	bestCenter, found := 0.0, false
	var best chanInfo
	for c, ci := range byCenter {
		better := !found ||
			ci.worstSupp > best.worstSupp ||
			(ci.worstSupp == best.worstSupp && ci.occupants < best.occupants) ||
			(ci.worstSupp == best.worstSupp && ci.occupants == best.occupants && c < bestCenter)
		if better {
			bestCenter, best, found = c, *ci, true
		}
	}
	return bestCenter, found
}

// checkHostPicks installs the reference scan as an observer of every
// host-channel selection nw makes, failing the test on the first pick
// that differs. It returns the count of picks checked.
func checkHostPicks(t *testing.T, nw *Network, what string) *int {
	t.Helper()
	picks := new(int)
	nw.onHostPick = func(ap *AccessPoint, n *Node, center float64, ok bool) {
		*picks++
		wantC, wantOK := hostChannelScan(nw, ap, n)
		if center != wantC || ok != wantOK {
			t.Fatalf("%s: pick %d for node %d at AP %d: index (%v, %v), scan (%v, %v)",
				what, *picks, n.ID, ap.idx, center, ok, wantC, wantOK)
		}
	}
	return picks
}

// hostPickScenario runs the scripted host-selection workload on nw: 60
// MHz demands over a 4-AP factor-2 reuse floor so FDM runs out and SDM
// placement runs constantly; pre-run leaves (owner leaves promote a
// sharer) and moves; then a Run with roaming, a blocker crossing the
// floor, scheduled churn, a node crash and reboot, and an AP restart
// whose wiped books send its nodes back through the handshake (a host
// pick that must skip the node's own stale entry).
func hostPickScenario(t *testing.T, nw *Network) RunStats {
	t.Helper()
	addExtraAPs(t, nw, 4)
	if err := nw.PlanReuse(2); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	pose := func() channel.Pose {
		pos := channel.Vec2{X: rng.Uniform(0.6, 5.4), Y: rng.Uniform(0.5, 3.5)}
		ap := nw.selectAP(pos)
		return channel.Pose{Pos: pos, Orientation: ap.Pose.Pos.Sub(pos).Angle()}
	}
	for i := 1; i <= 60; i++ {
		if _, err := nw.Join(uint32(i), pose(), 60e6, Telemetry(0.05)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if i%7 == 0 {
			nw.Leave(uint32(i / 2))
		}
		if i%5 == 0 {
			nw.MoveNode(uint32(i-2), pose())
		}
	}
	nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 2, CheckIntervalS: 0.1, MinDwellS: 0.2})
	nw.Env.AddBlocker(&channel.Blocker{
		Pos: channel.Vec2{X: 1.0, Y: 2.0}, Radius: 0.35, LossDB: 18,
		Vel: channel.Vec2{X: 1.2, Y: 0.1},
	})
	for k := 0; k < 8; k++ {
		at := 0.05 + 0.1*float64(k)
		nw.ScheduleLeave(at, uint32(2+3*k))
		nw.ScheduleJoin(at+0.02, uint32(100+k), pose(), 60e6, Telemetry(0.05))
	}
	nw.Faults = faults.NewPlan().Crash(0.2, 13).Reboot(0.5, 13).RestartAPAt(0.3, 0.1, 1)
	return nw.Run(1.2, 0.05, 10)
}

// TestHostChannelMatchesScan checks every host-channel pick the index
// makes against the reference all-members scan, under both coupling
// engines, through joins, owner-leave promotions, moves, roams, crash
// and reboot, and AP-restart rejoins. With a perfect side channel the
// control plane draws no randomness, so the two engines must also end
// with identical assignments, harmonics and sharing roles.
func TestHostChannelMatchesScan(t *testing.T) {
	run := func(mode CouplingMode) (*Network, RunStats, int) {
		nw := newTestNetwork(1212)
		nw.CouplingCutoffDB = exactCutoffDB
		nw.SetCouplingMode(mode)
		picks := checkHostPicks(t, nw, map[CouplingMode]string{CouplingDense: "dense", CouplingSparse: "sparse"}[mode])
		st := hostPickScenario(t, nw)
		return nw, st, *picks
	}
	dense, ds, dPicks := run(CouplingDense)
	sparse, ss, sPicks := run(CouplingSparse)
	if dPicks < 50 || ds.Roams == 0 || ds.Control.Reboots == 0 || ds.Control.Rejoins == 0 {
		t.Fatalf("scenario too thin: %d picks, %d roams, control %+v", dPicks, ds.Roams, ds.Control)
	}
	if dPicks != sPicks || ds.Roams != ss.Roams || ds.Control != ss.Control {
		t.Fatalf("engines diverged: picks %d/%d roams %d/%d control %+v / %+v",
			dPicks, sPicks, ds.Roams, ss.Roams, ds.Control, ss.Control)
	}
	t.Logf("%d picks checked per engine; %d roams; control %+v", dPicks, ds.Roams, ds.Control)
	for i, dn := range dense.Nodes {
		sn := sparse.Nodes[i]
		if dn.ID != sn.ID || dn.Assignment != sn.Assignment ||
			dn.SDMHarmonic != sn.SDMHarmonic || dn.SDMShared != sn.SDMShared || dn.apIndex() != sn.apIndex() {
			t.Errorf("node %d: dense {%v h=%d shared=%v ap=%d} sparse {%v h=%d shared=%v ap=%d}",
				dn.ID, dn.Assignment, dn.SDMHarmonic, dn.SDMShared, dn.apIndex(),
				sn.Assignment, sn.SDMHarmonic, sn.SDMShared, sn.apIndex())
		}
	}
}

// TestHostChannelMatchesScanLossy runs the multi-AP reference scenario
// — lossy control, roaming, Poisson churn — with 60 MHz demands so SDM
// placement happens, and checks every pick against the reference scan
// under both engines.
func TestHostChannelMatchesScanLossy(t *testing.T) {
	for _, mode := range []CouplingMode{CouplingDense, CouplingSparse} {
		nw := multiAPNetwork(t, 91, 4)
		if err := nw.PlanReuse(2); err != nil {
			t.Fatal(err)
		}
		nw.SetCouplingMode(mode)
		picks := checkHostPicks(t, nw, "lossy")
		multiAPChurnPlan(t, nw, 91, 20, 8, 6)
		for i := 21; i <= 40; i++ {
			if _, err := nw.Join(uint32(i), multiAPPose(nw, uint32(i)), 60e6, Telemetry(0.05)); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		nw.Faults = faults.NewPlan().Crash(0.3, 25).Reboot(0.7, 25).RestartAPAt(0.4, 0.1, 2)
		st := nw.Run(1.2, 0.05, 10)
		if *picks == 0 {
			t.Fatalf("mode %d: no host picks", mode)
		}
		t.Logf("mode %d: %d picks, %d roams, control %+v", mode, *picks, st.Roams, st.Control)
	}
}
