package simnet

import (
	"math"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/stats"
)

// joinField joins ids [from, to) at seeded positions over the lab room,
// each facing its nearest AP, at 1 Mb/s — enough nodes exhaust FDM, so
// the membership mixes owners and SDM sharers.
func joinField(t *testing.T, nw *Network, rng *stats.RNG, from, to int, after func(i int)) {
	t.Helper()
	for i := from; i < to; i++ {
		pos := channel.Vec2{X: rng.Uniform(0.5, 5.5), Y: rng.Uniform(0.5, 3.5)}
		ap := nw.selectAP(pos)
		pose := channel.Pose{Pos: pos, Orientation: ap.Pose.Pos.Sub(pos).Angle()}
		if _, err := nw.Join(uint32(i), pose, 1e6, Telemetry(5)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if after != nil {
			after(i)
		}
	}
}

// assertSameNetworks requires two networks built by the same action
// sequence to agree byte for byte: reports, assignments, harmonics and
// sharing roles.
func assertSameNetworks(t *testing.T, a, b *Network, what string) {
	t.Helper()
	ra, rb := a.EvaluateSINR(), b.EvaluateSINR()
	if len(ra) != len(rb) {
		t.Fatalf("%s: %d vs %d reports", what, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("%s: node %d reports differ\n%+v\n%+v", what, ra[i].ID, ra[i], rb[i])
		}
		na, nb := a.Nodes[i], b.Nodes[i]
		if na.Assignment != nb.Assignment || na.SDMHarmonic != nb.SDMHarmonic || na.SDMShared != nb.SDMShared {
			t.Fatalf("%s: node %d spectrum differs: {%v h=%d shared=%v} vs {%v h=%d shared=%v}",
				what, na.ID, na.Assignment, na.SDMHarmonic, na.SDMShared,
				nb.Assignment, nb.SDMHarmonic, nb.SDMShared)
		}
	}
}

// TestLazyDenseCacheMatchesEager pins the build-on-first-read contract on
// one AP: a network evaluated after every join (its cache built at the
// first join and maintained incrementally ever after) and one evaluated
// only at the end (its cache built once, from scratch) must agree byte
// for byte. A build that is never evaluated runs no dense pair kernel.
func TestLazyDenseCacheMatchesEager(t *testing.T) {
	const n = 300
	eager, lazy := newTestNetwork(301), newTestNetwork(301)
	joinField(t, eager, stats.NewRNG(3), 1, n+1, func(int) { eager.EvaluateSINR() })
	joinField(t, lazy, stats.NewRNG(3), 1, n+1, nil)
	if st := lazy.CouplingStats(); st.DenseKernels != 0 || st.DenseAllocs != 0 {
		t.Fatalf("unevaluated build did dense work: %+v", st)
	}
	assertSameNetworks(t, eager, lazy, "eager vs lazy")
	if st := lazy.CouplingStats(); st.DenseKernels != n*(n-1) || st.DenseAllocs != 1 {
		t.Fatalf("first read should build the matrix once: %+v", st)
	}
}

// TestLazyCrossoverMatchesEager pins the same contract across the sparse
// crossover on a 4-AP reuse floor: a 1,000-node build that crosses it
// with an evaluation at 500 nodes (so a dense cache is built and
// maintained for 268 joins, then dropped) must end byte-identical to one
// that never evaluates before the end — and that one must never have run
// a dense pair kernel or allocated a dense matrix. The eager build is run
// at one worker and at four: every work counter must match.
func TestLazyCrossoverMatchesEager(t *testing.T) {
	if testing.Short() {
		t.Skip("joins a crossover-sized membership")
	}
	build := func(evalAt, workers int) *Network {
		nw := multiAPNetwork(t, 500, 4)
		if err := nw.PlanReuse(4); err != nil {
			t.Fatal(err)
		}
		nw.Workers = workers
		joinField(t, nw, stats.NewRNG(8), 1, 1001, func(i int) {
			if i == evalAt {
				nw.EvaluateSINR()
			}
		})
		if nw.sparse == nil {
			t.Fatal("1,000 joins should cross into the sparse core")
		}
		return nw
	}
	lazy := build(-1, 1)
	eager := build(500, 1)
	eager4 := build(500, 4)
	if st := lazy.CouplingStats(); st.DenseKernels != 0 || st.DenseFloats != 0 {
		t.Fatalf("lazy build touched the dense matrix: %+v", st)
	}
	if st := eager.CouplingStats(); st.DenseKernels == 0 {
		t.Fatalf("eager build never built the dense matrix: %+v", st)
	}
	if a, b := eager.CouplingStats(), eager4.CouplingStats(); a != b {
		t.Fatalf("counters depend on the worker count:\nWorkers=1 %+v\nWorkers=4 %+v", a, b)
	}
	if lazy.CouplingStats().DiscCells == 0 || lazy.CouplingStats().DiscCandidates == 0 {
		t.Fatalf("sparse discovery did no counted work: %+v", lazy.CouplingStats())
	}
	t.Logf("lazy %+v", lazy.CouplingStats())
	t.Logf("eager %+v", eager.CouplingStats())
	assertSameNetworks(t, eager, lazy, "eager vs lazy")
	assertSameNetworks(t, eager4, lazy, "eager Workers=4 vs lazy")
}

// TestDenseCacheGrowthAmortized pins the storage policy of a live dense
// cache: k joins after an evaluation reallocate the matrix O(log k)
// times, not once per join, reserve O(n²) floats in total, and stay
// golden against a from-scratch rebuild.
func TestDenseCacheGrowthAmortized(t *testing.T) {
	const start, k = 20, 200
	nw := newTestNetwork(77)
	joinField(t, nw, stats.NewRNG(4), 1, start+1, nil)
	nw.EvaluateSINR()
	before := nw.CouplingStats()
	joinField(t, nw, stats.NewRNG(5), start+1, start+k+1, nil)
	st := nw.CouplingStats()
	allocs := st.DenseAllocs - before.DenseAllocs
	if limit := int(math.Ceil(math.Log2(k))) + 1; allocs > limit {
		t.Fatalf("%d joins reallocated the matrix %d times, want ≤ %d", k, allocs, limit)
	}
	n := start + k
	if floats := st.DenseFloats - before.DenseFloats; floats > 4*n*n {
		t.Fatalf("%d joins reserved %d floats, want ≤ 4n² = %d", k, floats, 4*n*n)
	}
	if kernels := st.DenseKernels - before.DenseKernels; kernels != n*(n-1)-start*(start-1) {
		t.Fatalf("incremental joins ran %d pair kernels, want %d", kernels, n*(n-1)-start*(start-1))
	}
	assertCouplingGolden(t, nw, "after amortized growth")
	nw.Leave(7)
	nw.Leave(150)
	joinField(t, nw, stats.NewRNG(6), 1000, 1010, nil)
	assertCouplingGolden(t, nw, "after shrink and regrow")
}
