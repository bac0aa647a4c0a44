package simnet

import (
	"fmt"
	"math"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/faults"
	"mmx/internal/mac"
	"mmx/internal/stats"
	"mmx/internal/units"
)

// exactCutoffDB disables edge pruning: at −200 dB below the noise floor
// the admission threshold is under any pair's conservative power bound,
// so the sparse graph stores every pair and its evaluation must match
// the dense matrix to float tolerance. The equivalence tests use it to
// exercise all the graph bookkeeping with zero modeling difference; the
// pruning itself is covered by the cutoff-soundness test.
const exactCutoffDB = -200

// sparseDensePair builds two networks over identical seeded environments
// and RNG streams, one pinned dense and one pinned sparse (with pruning
// disabled), so any identical action sequence must leave them with
// reports equal to ≤1e-12.
func sparseDensePair(seed uint64) (dense, sparse *Network) {
	dense = newTestNetwork(seed)
	sparse = newTestNetwork(seed)
	sparse.CouplingCutoffDB = exactCutoffDB
	dense.SetCouplingMode(CouplingDense)
	sparse.SetCouplingMode(CouplingSparse)
	return dense, sparse
}

// assertReportsClose compares the two networks' full report slices
// within tol (the sparse interference sum visits sources in adjacency
// order, not membership order, so bit-identity is not required — but
// with pruning disabled the sums differ only by association).
func assertReportsClose(t *testing.T, dense, sparse *Network, tol float64, what string) {
	t.Helper()
	dr := dense.EvaluateSINR()
	sr := sparse.EvaluateSINR()
	if len(dr) != len(sr) {
		t.Fatalf("%s: dense %d reports, sparse %d", what, len(dr), len(sr))
	}
	for i := range dr {
		d, s := dr[i], sr[i]
		if d.ID != s.ID || d.PathClass != s.PathClass || d.SDM != s.SDM {
			t.Fatalf("%s node %d: identity mismatch dense %+v sparse %+v", what, d.ID, d, s)
		}
		if !closeOrBothInf(d.SINRdB, s.SINRdB, tol) || !closeOrBothInf(d.SNRdB, s.SNRdB, tol) {
			t.Fatalf("%s node %d: dense SINR %x SNR %x, sparse SINR %x SNR %x",
				what, d.ID, d.SINRdB, d.SNRdB, s.SINRdB, s.SNRdB)
		}
		if math.Abs(d.BER-s.BER) > tol {
			t.Fatalf("%s node %d: BER dense %x sparse %x", what, d.ID, d.BER, s.BER)
		}
	}
}

func closeOrBothInf(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

// applyBoth runs the same mutation on both networks of a pair.
func applyBoth(dense, sparse *Network, fn func(nw *Network)) {
	fn(dense)
	fn(sparse)
}

// TestSparseMatchesDenseChurnPlan drives a pinned-sparse network through
// a randomized membership plan — joins, leaves (owners and sharers),
// moves, and the promotions those leaves trigger — mirrored onto a
// pinned-dense twin, and requires the two interference pictures to agree
// to ≤1e-12 after every event.
func TestSparseMatchesDenseChurnPlan(t *testing.T) {
	dense, sparse := sparseDensePair(311)
	rng := stats.NewRNG(99)
	live := []uint32{}
	nextID := uint32(1)
	// 60 MHz demands exhaust FDM quickly, so the plan exercises SDM
	// sharing, TMA coupling terms and owner-leave promotions.
	for step := 0; step < 120; step++ {
		r := rng.Float64()
		switch {
		case r < 0.5 || len(live) < 4:
			id := nextID
			nextID++
			pos := channel.Vec2{X: rng.Uniform(1, 5.5), Y: rng.Uniform(0.5, 3.5)}
			pose := channel.Pose{Pos: pos, Orientation: rng.Uniform(-math.Pi, math.Pi)}
			applyBoth(dense, sparse, func(nw *Network) {
				if _, err := nw.Join(id, pose, 60e6, HDCamera(8)); err != nil {
					t.Fatalf("step %d: join %d: %v", step, id, err)
				}
			})
			live = append(live, id)
		case r < 0.75:
			k := int(rng.Float64() * float64(len(live)))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			applyBoth(dense, sparse, func(nw *Network) { nw.Leave(id) })
		default:
			id := live[int(rng.Float64()*float64(len(live)))]
			pos := channel.Vec2{X: rng.Uniform(1, 5.5), Y: rng.Uniform(0.5, 3.5)}
			pose := channel.Pose{Pos: pos, Orientation: rng.Uniform(-math.Pi, math.Pi)}
			applyBoth(dense, sparse, func(nw *Network) {
				if !nw.MoveNode(id, pose) {
					t.Fatalf("step %d: move missed node %d", step, id)
				}
			})
		}
		assertReportsClose(t, dense, sparse, 1e-12, fmt.Sprintf("step %d", step))
		if err := sparse.ValidateSpectrum(); err != nil {
			t.Fatalf("step %d: sparse spectrum: %v", step, err)
		}
	}
}

// TestSparseAssignmentsMatchDense checks every host-channel pick of both
// engines against the reference all-members scan (hostChannelScan): with
// a perfect side channel the control plane draws no randomness, so the
// two modes must also hand every joiner exactly the same assignment,
// harmonic and sharing role — including the SDM host-channel choices
// once FDM runs out.
func TestSparseAssignmentsMatchDense(t *testing.T) {
	dense, sparse := sparseDensePair(1212)
	densePicks := checkHostPicks(t, dense, "dense")
	sparsePicks := checkHostPicks(t, sparse, "sparse")
	rng := stats.NewRNG(5)
	for i := 1; i <= 90; i++ {
		pos := channel.Vec2{X: rng.Uniform(1, 5.5), Y: rng.Uniform(0.5, 3.5)}
		pose := channel.Pose{Pos: pos, Orientation: rng.Uniform(-math.Pi, math.Pi)}
		applyBoth(dense, sparse, func(nw *Network) {
			if _, err := nw.Join(uint32(i), pose, 40e6, HDCamera(8)); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		})
		if i%7 == 0 { // owner/sharer leaves re-run host selection via promotion
			applyBoth(dense, sparse, func(nw *Network) { nw.Leave(uint32(i / 2)) })
		}
	}
	if *densePicks == 0 || *densePicks != *sparsePicks {
		t.Fatalf("host picks: dense %d sparse %d", *densePicks, *sparsePicks)
	}
	if len(dense.Nodes) != len(sparse.Nodes) {
		t.Fatalf("membership diverged: dense %d sparse %d", len(dense.Nodes), len(sparse.Nodes))
	}
	for i, dn := range dense.Nodes {
		sn := sparse.Nodes[i]
		if dn.ID != sn.ID || dn.Assignment != sn.Assignment ||
			dn.SDMHarmonic != sn.SDMHarmonic || dn.SDMShared != sn.SDMShared {
			t.Errorf("node %d: dense {%v h=%d shared=%v} sparse {%v h=%d shared=%v}",
				dn.ID, dn.Assignment, dn.SDMHarmonic, dn.SDMShared,
				sn.Assignment, sn.SDMHarmonic, sn.SDMShared)
		}
	}
}

// TestSparseRunMatchesDense runs the full engine — scheduled churn,
// node crash/reboot faults, lease renewals over a perfect side channel,
// blocker motion — in both modes and requires identical traffic
// outcomes. With pruning disabled the SINR trajectories agree to float
// tolerance, so every frame's delivery draw resolves identically.
func TestSparseRunMatchesDense(t *testing.T) {
	dense, sparse := sparseDensePair(77)
	applyBoth(dense, sparse, func(nw *Network) {
		nw.Env.AddBlocker(&channel.Blocker{
			Pos: channel.Vec2{X: 3, Y: 2}, Radius: 0.3, LossDB: 12,
			Vel: channel.Vec2{X: 0.8, Y: -0.5},
		})
		for i := 1; i <= 24; i++ {
			pose := churnPose(nw, uint32(i))
			if _, err := nw.Join(uint32(i), pose, 40e6, Telemetry(0.05)); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		nw.ScheduleJoin(0.1, 40, churnPose(nw, 40), 40e6, Telemetry(0.05))
		nw.ScheduleJoin(0.25, 41, churnPose(nw, 41), 40e6, Telemetry(0.05))
		nw.ScheduleLeave(0.15, 3) // an FDM owner: promotion path
		nw.ScheduleLeave(0.3, 11)
		nw.Faults = faults.NewPlan().Crash(0.12, 5).Reboot(0.28, 5)
	})
	ds := dense.Run(0.5, 0.05, 10)
	ss := sparse.Run(0.5, 0.05, 10)
	if ds.Joins != ss.Joins || ds.Leaves != ss.Leaves || ds.Control != ss.Control {
		t.Fatalf("control outcomes diverged: dense %+v/%+v sparse %+v/%+v",
			ds.Control, ds.Joins, ss.Control, ss.Joins)
	}
	if len(ds.PerNode) != len(ss.PerNode) {
		t.Fatalf("per-node layout diverged: %d vs %d", len(ds.PerNode), len(ss.PerNode))
	}
	for i := range ds.PerNode {
		d, s := ds.PerNode[i], ss.PerNode[i]
		if d.ID != s.ID || d.FramesSent != s.FramesSent || d.FramesLost != s.FramesLost ||
			d.FramesDropped != s.FramesDropped || d.FramesOutage != s.FramesOutage ||
			d.BitsDelivered != s.BitsDelivered || d.SINRSamples != s.SINRSamples {
			t.Errorf("node %d: traffic diverged dense %+v sparse %+v", d.ID, d, s)
		}
		if !closeOrBothInf(d.MeanSINRdB, s.MeanSINRdB, 1e-9) ||
			!closeOrBothInf(d.MinSINRdB, s.MinSINRdB, 1e-9) {
			t.Errorf("node %d: SINR stats diverged dense %+v sparse %+v", d.ID, d, s)
		}
	}
	assertReportsClose(t, dense, sparse, 1e-12, "post-run")
}

// TestSparseAutoCrossover pins the CouplingAuto policy: below the
// crossover the network runs the dense matrix; the join that reaches
// sparseCrossover switches it (one-way) to the sparse core, the dense
// cache is released, and the picture still matches a pinned-dense twin.
func TestSparseAutoCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("joins a crossover-sized membership")
	}
	auto := newTestNetwork(900)
	auto.CouplingCutoffDB = exactCutoffDB
	dense := newTestNetwork(900)
	dense.SetCouplingMode(CouplingDense)
	rng := stats.NewRNG(17)
	for i := 1; i <= sparseCrossover; i++ {
		pos := channel.Vec2{X: rng.Uniform(0.5, 5.5), Y: rng.Uniform(0.5, 3.5)}
		pose := channel.Pose{Pos: pos, Orientation: rng.Uniform(-math.Pi, math.Pi)}
		applyBoth(dense, auto, func(nw *Network) {
			if _, err := nw.Join(uint32(i), pose, 1e6, Telemetry(5)); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		})
		if i == sparseCrossover-1 && auto.sparse != nil {
			t.Fatal("auto mode went sparse below the crossover")
		}
	}
	if auto.sparse == nil {
		t.Fatal("auto mode did not switch at the crossover")
	}
	if auto.coupling != nil {
		t.Error("crossover should release the dense cache")
	}
	assertReportsClose(t, dense, auto, 1e-12, "post-crossover")
	// One-way: dropping back below the crossover keeps the sparse core.
	applyBoth(dense, auto, func(nw *Network) { nw.Leave(5) })
	if auto.sparse == nil {
		t.Error("auto mode must stay sparse after shrinking below the crossover")
	}
	assertReportsClose(t, dense, auto, 1e-12, "after shrink")
}

// TestSparseCutoffSoundness pins the pruning contract exactly as stated:
// in a field large enough that real pruning happens, every pair the
// sparse core declined to store must have an ACTUAL coupled interference
// power at or below the victim's admission threshold cut·noise — the
// conservative bound may only ever drop pairs that provably don't
// matter. (Cross-check: at least one pair must actually be dropped, or
// the test is vacuous.)
func TestSparseCutoffSoundness(t *testing.T) {
	rng := stats.NewRNG(4)
	// Size the room from the audibility radius itself so the test tracks
	// the bound: half the nodes land outside the disc and carry no edges.
	probe := newTestNetwork(500)
	r := math.Sqrt(probe.sparsePowerBoundConst() / probe.LinkCfg.NoisePowerW())
	side := 2.5 * r
	env := channel.NewEnvironment(channel.NewRoom(side, side, rng), units.ISM24GHzCenter)
	ap := channel.Pose{Pos: channel.Vec2{X: side / 2, Y: side / 2}}
	nw := New(env, ap, 1234)
	nw.SetCouplingMode(CouplingSparse) // default CouplingCutoffDB = 0: prune at the noise floor
	// A high-demand cluster around the AP forces SDM sharing and adjacent
	// wide channels — couplings that must survive the cutoff — while the
	// low-demand field population scatters across the full audibility
	// scale, so plenty of pairs fall below it.
	const n = 140
	for i := 1; i <= n; i++ {
		var pos channel.Vec2
		demand := 1e6
		if i <= 40 {
			pos = channel.Vec2{
				X: ap.Pos.X + rng.Uniform(-8, 8),
				Y: ap.Pos.Y + rng.Uniform(-8, 8),
			}
			demand = 40e6
		} else {
			pos = channel.Vec2{X: rng.Uniform(1, side-1), Y: rng.Uniform(1, side-1)}
		}
		pose := channel.Pose{Pos: pos, Orientation: rng.Uniform(-math.Pi, math.Pi)}
		if _, err := nw.Join(uint32(i), pose, demand, Telemetry(5)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	nw.EvaluateSINR() // settle: every node's actual power is current
	stored := make(map[[2]uint32]float64)
	edges := 0
	for _, v := range nw.Nodes {
		for i := range v.sp.in {
			e := v.sp.in[i]
			stored[[2]uint32{v.ID, e.src.ID}] = e.w
			edges++
		}
	}
	total := n * (n - 1)
	if edges == 0 || edges == total {
		t.Fatalf("want genuine pruning: %d of %d directed pairs stored", edges, total)
	}
	t.Logf("stored %d of %d directed pairs (%.1f%%)", edges, total, 100*float64(edges)/float64(total))
	cut := units.FromDB(nw.CouplingCutoffDB)
	for _, v := range nw.Nodes {
		threshold := cut * v.Link.Cfg.NoisePowerW()
		for _, src := range nw.Nodes {
			if src == v {
				continue
			}
			w := nw.pairCouplingLinear(v, src)
			actual := src.sp.power * w
			if _, ok := stored[[2]uint32{v.ID, src.ID}]; ok {
				continue
			}
			if actual > threshold {
				t.Fatalf("dropped pair %d<-%d carries %.3e W, above threshold %.3e W",
					v.ID, src.ID, actual, threshold)
			}
		}
	}
	// The stored edges must hold the exact kernel value, not the bound.
	for key, w := range stored {
		v, src := nw.nodeByID(key[0]), nw.nodeByID(key[1])
		if want := nw.pairCouplingLinear(v, src); w != want {
			t.Fatalf("edge %d<-%d stores w=%x, kernel says %x", key[0], key[1], w, want)
		}
	}
}

// TestSparseInterferenceErrorBounded pins the analytic accuracy claim
// the cutoff derivation makes: per victim, dense interference minus
// sparse interference is non-negative (pruning only removes power) and
// at most dropped_pairs·cut·noise.
func TestSparseInterferenceErrorBounded(t *testing.T) {
	rng := stats.NewRNG(8)
	probe := newTestNetwork(501)
	r := math.Sqrt(probe.sparsePowerBoundConst() / probe.LinkCfg.NoisePowerW())
	side := 2 * r
	env := channel.NewEnvironment(channel.NewRoom(side, side, rng), units.ISM24GHzCenter)
	ap := channel.Pose{Pos: channel.Vec2{X: side / 2, Y: side / 2}}
	nw := New(env, ap, 4321)
	nw.CouplingCutoffDB = -20 // prune 20 dB below each victim's noise floor
	nw.SetCouplingMode(CouplingSparse)
	const n = 120
	for i := 1; i <= n; i++ {
		pos := channel.Vec2{X: rng.Uniform(1, side-1), Y: rng.Uniform(1, side-1)}
		pose := channel.Pose{Pos: pos, Orientation: rng.Uniform(-math.Pi, math.Pi)}
		if _, err := nw.Join(uint32(i), pose, 1e6, Telemetry(5)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	nw.EvaluateSINR()
	cut := units.FromDB(nw.CouplingCutoffDB)
	for _, v := range nw.Nodes {
		denseInterf := 0.0
		for _, src := range nw.Nodes {
			if src == v {
				continue
			}
			denseInterf += src.sp.power * nw.pairCouplingLinear(v, src)
		}
		dropped := (len(nw.Nodes) - 1) - len(v.sp.in)
		bound := float64(dropped) * cut * v.Link.Cfg.NoisePowerW()
		diff := denseInterf - v.sp.interf
		if diff < -1e-12*denseInterf {
			t.Fatalf("node %d: sparse interference exceeds dense (%x > %x)", v.ID, v.sp.interf, denseInterf)
		}
		if diff > bound*(1+1e-9) {
			t.Fatalf("node %d: dropped %d pairs lose %.3e W, analytic bound %.3e W",
				v.ID, dropped, diff, bound)
		}
	}
}

// TestSparseDeterminism requires the sparse engine to be a pure function
// of its seeds: two identical runs must agree on every report bit.
func TestSparseDeterminism(t *testing.T) {
	runOnce := func() ([]Report, RunStats) {
		nw := newTestNetwork(272)
		nw.SetCouplingMode(CouplingSparse)
		nw.Workers = 8 // exercise the parallel settle fan-out
		for i := 1; i <= 30; i++ {
			if _, err := nw.Join(uint32(i), churnPose(nw, uint32(i)), 40e6, Telemetry(0.05)); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		nw.ScheduleLeave(0.1, 4)
		nw.ScheduleJoin(0.2, 50, churnPose(nw, 50), 40e6, Telemetry(0.05))
		st := nw.Run(0.4, 0.05, 10)
		return nw.EvaluateSINR(), st
	}
	r1, s1 := runOnce()
	r2, s2 := runOnce()
	if len(r1) != len(r2) {
		t.Fatalf("report counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("node %d: reports differ across identical runs:\n%+v\n%+v", r1[i].ID, r1[i], r2[i])
		}
	}
	if s1.Joins != s2.Joins || s1.Leaves != s2.Leaves || s1.Control != s2.Control {
		t.Fatalf("run stats differ across identical runs")
	}
}

// TestCheckExclusiveOverlapCatchesInjected regression-tests the
// sort-based overlap validator with a hand-built membership: it must
// flag an injected overlap between non-adjacent list entries (the case
// an adjacent-only scan over the UNSORTED list would miss), accept
// exactly abutting channels, and ignore SDM sharers and crashed nodes.
func TestCheckExclusiveOverlapCatchesInjected(t *testing.T) {
	nw := newTestNetwork(88)
	mk := func(id uint32, low, width float64, shared, down bool) *Node {
		return &Node{
			ID:         id,
			SDMShared:  shared,
			Down:       down,
			Assignment: mac.Assignment{NodeID: id, CenterHz: low + width/2, WidthHz: width},
		}
	}
	clean := []*Node{
		mk(1, 100e6, 25e6, false, false),
		mk(2, 125e6, 25e6, false, false), // exactly abutting: legal
		mk(3, 200e6, 50e6, false, false),
		mk(4, 200e6, 50e6, true, false), // sharer on 3's channel: legal
	}
	if err := nw.checkExclusiveOverlap(clean); err != nil {
		t.Fatalf("clean layout rejected: %v", err)
	}
	overlapped := append([]*Node{mk(9, 110e6, 25e6, false, false)}, clean...)
	if err := nw.checkExclusiveOverlap(overlapped); err == nil {
		t.Fatal("injected overlap not caught")
	}
	// The same overlap on a crashed node transmits nothing: legal.
	masked := append([]*Node{mk(9, 110e6, 25e6, false, true)}, clean...)
	if err := nw.checkExclusiveOverlap(masked); err != nil {
		t.Fatalf("crashed node's stale channel rejected: %v", err)
	}
}

// TestSparseForceDenseTeardown pins SetCouplingMode(CouplingDense): the
// sparse state is dropped, the dense matrix rebuilds from scratch, and
// the picture is unchanged.
func TestSparseForceDenseTeardown(t *testing.T) {
	nw := newTestNetwork(140)
	nw.CouplingCutoffDB = exactCutoffDB
	nw.SetCouplingMode(CouplingSparse)
	placeNodes(t, nw, 12, 40e6)
	before := nw.EvaluateSINR()
	nw.SetCouplingMode(CouplingDense)
	if nw.sparse != nil {
		t.Fatal("force-dense left sparse state live")
	}
	after := nw.EvaluateSINR()
	for i := range before {
		if !closeOrBothInf(before[i].SINRdB, after[i].SINRdB, 1e-12) {
			t.Fatalf("node %d: SINR changed across teardown: %x -> %x",
				before[i].ID, before[i].SINRdB, after[i].SINRdB)
		}
	}
}
