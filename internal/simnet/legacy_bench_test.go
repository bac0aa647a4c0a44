package simnet

import (
	"math"
	"math/cmplx"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/stats"
	"mmx/internal/units"
)

// legacyEvaluateSINR replicates the pre-cache evaluation engine exactly:
// serial link evaluations and a fresh couplingDB call for every ordered
// node pair on every invocation. It exists only to benchmark the old cost
// model against the cached engine (BenchmarkSINREngine below); couplingDB
// (at the bottom of this file) is the per-pair reference the cache is
// tested against.
func legacyEvaluateSINR(nw *Network) []Report {
	evals := make([]core.Evaluation, len(nw.Nodes))
	powers := make([]float64, len(nw.Nodes))
	for i, n := range nw.Nodes {
		evals[i] = n.Link.Evaluate()
		g := math.Max(cmplx.Abs(evals[i].G0), cmplx.Abs(evals[i].G1))
		powers[i] = g * g
	}
	out := make([]Report, len(nw.Nodes))
	for i, node := range nw.Nodes {
		noise := evals[i].NoisePowerW
		interf := 0.0
		for j, other := range nw.Nodes {
			if i == j {
				continue
			}
			interf += powers[j] * units.FromDB(-nw.couplingDB(node, other))
		}
		sinr := units.DB(powers[i] / (noise + interf))
		ev := evals[i]
		ev.SNRWithOTAM = sinr
		out[i] = Report{
			ID: node.ID, SNRdB: units.DB(powers[i] / noise), SINRdB: sinr,
			BER: ev.BERWithOTAM(), PathClass: nw.Env.BestPathClass(node.Pose.Pos, nw.AP.Pos),
			SDM: node.SDMShared,
		}
	}
	return out
}

func newBenchNetwork(b *testing.B, size int) *Network {
	env := channel.NewEnvironment(channel.NewLabRoom(stats.NewRNG(2)), units.ISM24GHzCenter)
	ap := channel.Pose{Pos: channel.Vec2{X: 0.3, Y: 2}}
	nw := New(env, ap, 3)
	for i := 1; i <= size; i++ {
		x := 1 + float64(i%5)
		y := 0.5 + float64(i%4)*0.8
		orient := math.Atan2(ap.Pos.Y-y, ap.Pos.X-x)
		pose := channel.Pose{Pos: channel.Vec2{X: x, Y: y}, Orientation: orient, Height: 0}
		if _, err := nw.Join(uint32(i), pose, 10e6, HDCamera(8)); err != nil {
			b.Fatal(err)
		}
	}
	return nw
}

// BenchmarkSINREngine pits the cached engine against the legacy per-pair
// path at each scale, so the speedup from the coupling cache is directly
// readable from one run.
func BenchmarkSINREngine(b *testing.B) {
	for _, size := range []int{20, 100, 500} {
		nw := newBenchNetwork(b, size)
		b.Run(sizeName("cached", size), func(b *testing.B) {
			nw.Workers = 1
			for i := 0; i < b.N; i++ {
				nw.EvaluateSINR()
			}
		})
		b.Run(sizeName("legacy", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				legacyEvaluateSINR(nw)
			}
		})
	}
}

// BenchmarkMembershipCoupling measures what one membership event costs
// the coupling cache: the incremental add+remove pair (O(n) kernels plus
// memory moves) against the dirty-flag full rebuild (O(n²) kernels) the
// same event used to force. This is the tentpole win that makes a join
// in a 500-node network affordable mid-run.
func BenchmarkMembershipCoupling(b *testing.B) {
	for _, size := range []int{100, 500} {
		nw := newBenchNetwork(b, size)
		nw.Workers = 1
		nw.ensureCoupling()
		last := nw.Nodes[len(nw.Nodes)-1]
		b.Run(sizeName("incremental", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nw.Nodes = nw.Nodes[:size-1]
				nw.couplingRemoveNode(last, size-1)
				nw.Nodes = append(nw.Nodes, last)
				nw.couplingAddNode()
			}
		})
		b.Run(sizeName("rebuild", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nw.couplingDirty = true
				nw.ensureCoupling()
			}
		})
	}
}

func sizeName(kind string, size int) string {
	return kind + "/nodes=" + itoa(size)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestCachedEngineMatchesLegacy pins the optimization contract: the cached
// engine (linearized coupling matrix, shared path enumeration, worker
// fan-out) must reproduce the legacy per-pair engine's reports bit for
// bit, including through churn that dirties and rebuilds the cache.
func TestCachedEngineMatchesLegacy(t *testing.T) {
	nw := newBenchTestNetwork(t, 40)
	check := func(stage string) {
		t.Helper()
		want := legacyEvaluateSINR(nw)
		for _, workers := range []int{1, 8} {
			nw.Workers = workers
			got := nw.EvaluateSINR()
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d reports, want %d", stage, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s workers=%d node %d: cached %+v != legacy %+v",
						stage, workers, got[i].ID, got[i], want[i])
				}
			}
		}
	}
	check("initial")
	nw.Env.Step(0.5) // blockers move; cache must stay valid and still match
	check("after env step")
	nw.Leave(3) // owner leave + possible promotion; cache rebuilds
	nw.Leave(27)
	check("after churn")
}

func newBenchTestNetwork(t *testing.T, size int) *Network {
	t.Helper()
	env := channel.NewEnvironment(channel.NewLabRoom(stats.NewRNG(2)), units.ISM24GHzCenter)
	ap := channel.Pose{Pos: channel.Vec2{X: 0.3, Y: 2}}
	nw := New(env, ap, 3)
	for i := 1; i <= size; i++ {
		x := 1 + float64(i%5)
		y := 0.5 + float64(i%4)*0.8
		orient := math.Atan2(ap.Pos.Y-y, ap.Pos.X-x)
		pose := channel.Pose{Pos: channel.Vec2{X: x, Y: y}, Orientation: orient, Height: 0}
		if _, err := nw.Join(uint32(i), pose, 10e6, HDCamera(8)); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

// couplingDB returns how many dB below its carrier node j's power lands in
// node i's receiver: frequency separation for FDM, TMA harmonic leakage
// for co-channel SDM pairs, and nothing at all — 0 dB, full collision —
// for overlapping channels with no SDM party (the post-churn bug state;
// earlier revisions granted such pairs phantom TMA suppression). This is
// the per-pair reference the legacy engine sums; the cached matrix built by ensureCoupling
// stores FromDB(−couplingDB) per pair, bit-identical to linearizing this
// value, via the indexed harmonic gain tables.
func (nw *Network) couplingDB(i, j *Node) float64 {
	if c, ok := nw.freqCouplingDB(i, j); ok {
		return c
	}
	if i.apIndex() != j.apIndex() {
		// Cross-AP co-channel: the interferer is not part of the victim
		// AP's TMA schedule, so the array buys no separation — a full
		// collision, mitigated only by distance (the power term).
		return 0
	}
	if !i.SDMShared && !j.SDMShared {
		return 0
	}
	// Co-channel at the same AP: separated spatially by that AP's TMA.
	// Leakage is j's energy appearing at i's harmonic relative to j's
	// own harmonic.
	ap := nw.hostAP(j)
	thJ := ap.Pose.AngleTo(j.Pose.Pos)
	own := cmplx.Abs(ap.SDM.HarmonicGain(j.SDMHarmonic, thJ))
	leak := cmplx.Abs(ap.SDM.HarmonicGain(i.SDMHarmonic, thJ))
	return tmaSuppressionDB(own, leak)
}
