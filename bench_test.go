package mmx

// One benchmark per paper artifact (DESIGN.md §3). Each bench regenerates
// its figure/table from scratch per iteration and reports the headline
// number as a custom metric, so `go test -bench=. -benchmem` doubles as
// the reproduction harness's smoke run. cmd/mmx-bench prints the full
// rows/series.

import (
	"fmt"
	"math"
	"testing"

	"mmx/internal/apdsp"
	"mmx/internal/dsp"
	"mmx/internal/experiments"
	"mmx/internal/stats"
	"mmx/internal/units"
)

func BenchmarkFig7VCOTuning(b *testing.B) {
	var last experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig7(16)
	}
	b.ReportMetric(last.FreqGHz[len(last.FreqGHz)-1]-last.FreqGHz[0], "GHz-span")
}

func BenchmarkFig8BeamPatterns(b *testing.B) {
	var last experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig8(720)
	}
	b.ReportMetric(last.OrthogonalityDB, "dB-orthogonality")
}

func BenchmarkFig9Waveforms(b *testing.B) {
	ok := 0
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(uint64(i))
		if r.DecodedA && r.DecodedB {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "decode-rate")
}

func BenchmarkFig10SNRMap(b *testing.B) {
	var last experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig10(uint64(i+1), 0.25)
	}
	b.ReportMetric(100*last.FracAbove10With, "pct≥10dB-with-OTAM")
	b.ReportMetric(100*last.FracBelow5Without, "pct<5dB-without")
}

func BenchmarkFig11BERCDF(b *testing.B) {
	var last experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig11(uint64(i+7), 30)
	}
	b.ReportMetric(last.MedianWith, "median-BER-with")
	b.ReportMetric(last.MedianWithout, "median-BER-without")
}

func BenchmarkFig12Range(b *testing.B) {
	var last experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig12(uint64(i+3), 18, 1)
	}
	b.ReportMetric(last.At18mFacing, "dB-at-18m-facing")
}

func BenchmarkFig13MultiNode(b *testing.B) {
	var last experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig13(uint64(i+5), []int{1, 2, 5, 10, 20}, 3)
	}
	b.ReportMetric(last.MeanAt20, "dB-mean-at-20-nodes")
}

func BenchmarkTable1Comparison(b *testing.B) {
	var nj float64
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		nj = t.Platforms[0].EnergyPerBitNJ()
	}
	b.ReportMetric(nj, "nJ-per-bit")
}

func BenchmarkMicroMaxRate(b *testing.B) {
	var r experiments.MicroResult
	for i := 0; i < b.N; i++ {
		r = experiments.Micro()
	}
	b.ReportMetric(r.MaxBitRateBps/1e6, "Mbps-max")
}

func BenchmarkMicroEnergyPerBit(b *testing.B) {
	var r experiments.MicroResult
	for i := 0; i < b.N; i++ {
		r = experiments.Micro()
	}
	b.ReportMetric(r.EnergyPerBitNJ, "nJ-per-bit")
}

func BenchmarkAblationBeams(b *testing.B) {
	var r experiments.AblationBeamsResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationBeams(uint64(i+11), 200)
	}
	b.ReportMetric(100*r.FracIndistinguishableNonOrtho, "pct-indist-nonortho")
	b.ReportMetric(100*r.FracIndistinguishableOrtho, "pct-indist-ortho")
}

func BenchmarkAblationModality(b *testing.B) {
	var r experiments.AblationModalityResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationModality(uint64(i+13), 200)
	}
	b.ReportMetric(100*r.FracDecodableJoint, "pct-joint-decodable")
}

func BenchmarkAblationTMA(b *testing.B) {
	var r experiments.AblationTMAResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationTMA(uint64(i+17), 100)
	}
	b.ReportMetric(r.Rows[len(r.Rows)-1].MeanSuppressionDB, "dB-suppression-16elem")
}

func BenchmarkAblationSDM(b *testing.B) {
	var r experiments.AblationSDMResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationSDM(uint64(i+19), 16, 40e6)
	}
	b.ReportMetric(float64(r.AdmittedHybrid), "nodes-admitted")
	b.ReportMetric(r.MeanSINRHybrid, "dB-mean-SINR")
}

func BenchmarkAblationSearch(b *testing.B) {
	var r experiments.AblationSearchResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationSearch(uint64(i + 23))
	}
	b.ReportMetric(float64(r.ExhaustiveProbes), "probes-exhaustive")
	b.ReportMetric(r.SearchEnergyPerDayJ, "J-per-day-searching")
}

// End-to-end pipeline benches: the per-frame cost of the actual
// modulation/demodulation path, the number that would gate a real-time
// software AP.

func BenchmarkOTAMFrameRoundtrip(b *testing.B) {
	env := NewEnvironment(10, 6, 1)
	link := env.NewLink(Facing(1, 3, 6, 3), Pose{X: 6, Y: 3, FacingRad: 3.14159})
	payload := []byte("benchmark frame payload....")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capture, err := link.Send(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := link.Receive(capture, len(payload)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkSINREvaluation measures the steady-state network
// evaluation hot path (what Run pays every envStep) at growing scale: 20
// nodes (all FDM), and 100/500 nodes (dense SDM sharing). The coupling
// matrix is cache-served and the per-node link evaluations fan out across
// the worker pool; the serial variant pins the single-core cost.
func BenchmarkNetworkSINREvaluation(b *testing.B) {
	bench := func(size, workers int) func(b *testing.B) {
		return func(b *testing.B) {
			env := NewLabEnvironment(2)
			nw := env.NewNetwork(Pose{X: 0.3, Y: 2}, 3)
			nw.SetWorkers(workers)
			for i := 1; i <= size; i++ {
				x := 1 + float64(i%5)
				y := 0.5 + float64(i%4)*0.8
				if _, err := nw.Join(uint32(i), Facing(x, y, 0.3, 2), 10e6, CameraTraffic(8)); err != nil {
					b.Fatal(err)
				}
			}
			nw.Reports() // the coupling cache is built on first read
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nw.Reports()
			}
		}
	}
	for _, size := range []int{20, 100, 500} {
		b.Run(fmt.Sprintf("nodes=%d", size), bench(size, 0))
		b.Run(fmt.Sprintf("nodes=%d/serial", size), bench(size, 1))
	}
}

// BenchmarkAPWidebandDemux measures the AP's channel-demultiplexing front
// end at growing channel counts: the one-pass polyphase filterbank
// (ExtractAllInto — every channel from a single sweep) against the legacy
// per-channel loop (mix, FIR, decimate once per channel). Both share the
// same prototype design; the bank's advantage grows with the channel
// count because its per-output cost is taps/bins MACs plus an FFT bin
// instead of a full mix+filter pass per channel. Bins is a power of two,
// so the bank's steady-state path is pool-free and must report 0
// allocs/op — the gate in BENCH_ap.json pins that.
func BenchmarkAPWidebandDemux(b *testing.B) {
	const (
		rate    = 250e6
		bins    = 256 // power of two: FFT stays on the in-place radix-2 path
		samples = 32768
		width   = 1.5e6
		decim   = 128
	)
	const outRate = rate / decim
	const spacing = rate / bins
	center := units.ISM24GHzCenter
	x := make([]complex128, samples)
	dsp.AddNoise(x, 1.0, stats.NewRNG(42))
	for _, n := range []int{10, 50, 200} {
		channels := make([]float64, n)
		for i := range channels {
			channels[i] = center + float64(i-n/2)*spacing
		}
		b.Run(fmt.Sprintf("channels=%d/bank", n), func(b *testing.B) {
			bank := apdsp.NewFilterBank(rate, center, bins)
			plan := make([]apdsp.BankChannel, n)
			for i, c := range channels {
				plan[i] = apdsp.BankChannel{ChannelHz: c}
			}
			if err := bank.Configure(width, outRate, plan); err != nil {
				b.Fatal(err)
			}
			dsts, err := bank.ExtractAll(x)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bank.ExtractAllInto(dsts, x); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("channels=%d/legacy", n), func(b *testing.B) {
			chz := apdsp.NewChannelizer(rate, center)
			dsts := make([][]complex128, n)
			var err error
			for i, c := range channels {
				if dsts[i], err = chz.ExtractInto(nil, x, c, width, outRate); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, c := range channels {
					if dsts[j], err = chz.ExtractInto(dsts[j], x, c, width, outRate); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkExtFEC(b *testing.B) {
	var r experiments.ExtFECResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtFEC(uint64(i+1), 100)
	}
	b.ReportMetric(float64(r.DeliveredCoded)/float64(r.Trials), "coded-delivery")
	b.ReportMetric(float64(r.DeliveredUncoded)/float64(r.Trials), "uncoded-delivery")
}

func BenchmarkExtNarrowBeam(b *testing.B) {
	var r experiments.ExtNarrowBeamResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtNarrowBeam(uint64(i + 2))
	}
	b.ReportMetric(r.Rows[len(r.Rows)-1].RangeAt10dBm, "m-range-8elem")
}

func BenchmarkExtBackside(b *testing.B) {
	var r experiments.ExtBacksideResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtBackside(uint64(i + 3))
	}
	b.ReportMetric(r.BackSNRExtended-r.BackSNRStandard, "dB-back-gain")
}

func BenchmarkExt60GHz(b *testing.B) {
	var r experiments.Ext60GHzResult
	for i := 0; i < b.N; i++ {
		r = experiments.Ext60GHz(uint64(i + 4))
	}
	b.ReportMetric(float64(r.Capacity60), "channels-60ghz")
}

func BenchmarkExtMobility(b *testing.B) {
	var r experiments.ExtMobilityResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtMobility(uint64(i + 5))
	}
	b.ReportMetric(100*r.OTAMUsableFrac, "pct-otam-usable")
	b.ReportMetric(float64(r.Searches), "searches")
}

func BenchmarkExtRate(b *testing.B) {
	var r experiments.ExtRateResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtRate(uint64(i+5), 60, 3, 1e-6)
	}
	b.ReportMetric(r.RangeAt1Mbps, "m-range-1Mbps")
}

func BenchmarkAblationFilter(b *testing.B) {
	var r experiments.AblationFilterResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationFilter(uint64(i + 3))
	}
	last := r.Rows[len(r.Rows)-1]
	b.ReportMetric(last.SINRWithFilter-last.SINRNoFilter, "dB-filter-gain-26GHz")
}

// BenchmarkNetworkScale is the billions-of-things scaling gate: an
// end-to-end churning deployment — joins, a traffic-serving Run with
// scheduled leave/join churn, and a final full SINR evaluation — at 1k,
// 10k, 100k and 1M nodes. Node density is constant (the field side grows
// as √n), so the audible neighborhood around the AP stays bounded while
// the membership grows by 1000×; the sparse coupling core (CouplingAuto
// crosses over below the 1k rung) is what keeps the whole run
// near-linear. The blockers=8 variants isolate the environment-tick cost
// under walking people — region-scoped invalidation re-evaluates only
// the nodes the walkers' swept corridors can reach, and the /stale
// variant pins the stale-everything baseline it is measured against.
// Committed baseline: BENCH_net.json, gated in CI by mmx-benchstat like
// the PHY and AP numbers.
func BenchmarkNetworkScale(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchNetworkScale(b, size)
			}
		})
	}
	b.Run("nodes=100000/aps=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchNetworkScaleAPs(b, 100000, 16)
		}
	})
	for _, size := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("nodes=%d/blockers=8", size), func(b *testing.B) {
			benchNetworkBlockers(b, size, true)
		})
	}
	b.Run("nodes=100000/blockers=8/stale", func(b *testing.B) {
		benchNetworkBlockers(b, 100000, false)
	})
}

func benchNetworkScale(b *testing.B, size int) {
	// ~6 km side per 1k nodes keeps the per-victim audible source set at
	// a few hundred regardless of n (the audibility radius for these
	// telemetry channels is ≈1.7 km).
	side := 6000 * math.Sqrt(float64(size)/1000)
	env := NewEnvironment(side, side, 11)
	nw := env.NewNetwork(Pose{X: side / 2, Y: side / 2}, 13)
	// Sparse from the first join: the auto crossover would pay the dense
	// path's O(members) host-channel scans and O(n²) matrix growth for
	// the first 768 joins — measurable noise at 1k, pure waste at 100k.
	nw.SetCouplingMode(CouplingSparse)
	nw.SetLeaseTTL(0, 0) // no keepalive cycle: the bench pins churn + traffic cost
	rng := stats.NewRNG(99)
	place := func() Pose {
		return Facing(rng.Uniform(1, side-1), rng.Uniform(1, side-1), side/2, side/2)
	}
	id := uint32(1)
	for i := 0; i < size; i++ {
		if _, err := nw.Join(id, place(), 1e6, TelemetryTraffic(5)); err != nil {
			b.Fatal(err)
		}
		id++
	}
	// Membership churn through the run: leaves spread across the whole
	// ID range (owners and sharers alike), each paired with a fresh join.
	const churn = 100
	for k := 0; k < churn; k++ {
		at := 0.02 + 4.5*float64(k)/churn
		nw.ScheduleLeave(at, uint32(1+k*(size/churn)))
		nw.ScheduleJoin(at+0.005, id, place(), 1e6, TelemetryTraffic(5))
		id++
	}
	st := nw.Run(5, 1, 0)
	if st.Joins != churn || st.Leaves != churn {
		b.Fatalf("churn incomplete: %d joins, %d leaves", st.Joins, st.Leaves)
	}
	if reports := nw.Reports(); len(reports) != size {
		b.Fatalf("membership drifted: %d nodes", len(reports))
	}
}

// benchNetworkScaleAPs is the multi-AP rung: the same field and density
// as benchNetworkScale, but served by a √naps × √naps grid of APs with a
// factor-4 frequency-reuse plan and hysteresis roaming armed. Each join
// associates with its nearest AP, so the sparse core runs naps shards
// with cross-shard co-channel edges — the number this rung pins is the
// sharded settle plus the per-tick roam screen over the whole fleet.
func benchNetworkScaleAPs(b *testing.B, size, naps int) {
	side := 6000 * math.Sqrt(float64(size)/1000)
	g := int(math.Sqrt(float64(naps)))
	if g*g != naps {
		b.Fatalf("naps %d is not a square grid", naps)
	}
	apAt := func(k int) (x, y float64) {
		return (float64(k%g) + 0.5) * side / float64(g),
			(float64(k/g) + 0.5) * side / float64(g)
	}
	env := NewEnvironment(side, side, 11)
	x0, y0 := apAt(0)
	nw := env.NewNetwork(Facing(x0, y0, side/2, side/2), 13)
	for k := 1; k < naps; k++ {
		x, y := apAt(k)
		if _, err := nw.AddAP(Facing(x, y, side/2, side/2)); err != nil {
			b.Fatal(err)
		}
	}
	if err := nw.PlanReuse(4); err != nil {
		b.Fatal(err)
	}
	nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 3})
	nw.SetCouplingMode(CouplingSparse)
	nw.SetLeaseTTL(0, 0)
	rng := stats.NewRNG(99)
	place := func() Pose {
		x, y := rng.Uniform(1, side-1), rng.Uniform(1, side-1)
		bx, by := apAt(0)
		bd := math.Hypot(x-bx, y-by)
		for k := 1; k < naps; k++ {
			ax, ay := apAt(k)
			if d := math.Hypot(x-ax, y-ay); d < bd {
				bx, by, bd = ax, ay, d
			}
		}
		return Facing(x, y, bx, by)
	}
	id := uint32(1)
	for i := 0; i < size; i++ {
		if _, err := nw.Join(id, place(), 1e6, TelemetryTraffic(5)); err != nil {
			b.Fatal(err)
		}
		id++
	}
	const churn = 100
	for k := 0; k < churn; k++ {
		at := 0.02 + 4.5*float64(k)/churn
		nw.ScheduleLeave(at, uint32(1+k*(size/churn)))
		nw.ScheduleJoin(at+0.005, id, place(), 1e6, TelemetryTraffic(5))
		id++
	}
	st := nw.Run(5, 1, 0)
	if st.Joins != churn || st.Leaves != churn {
		b.Fatalf("churn incomplete: %d joins, %d leaves", st.Joins, st.Leaves)
	}
	if reports := nw.Reports(); len(reports) != size {
		b.Fatalf("membership drifted: %d nodes", len(reports))
	}
}

// benchNetworkBlockers times the blocker-heavy steady state: the fleet
// joins untimed, eight people walk in orbits 50–200 m from the AP —
// right across the sight lines, where every node→AP path converges — and
// the timed section is a traffic-serving Run whose 40 env ticks each
// move the crowd. With region invalidation each tick re-evaluates only
// the nodes whose propagation corridors a swept capsule crosses;
// region=false pins the stale-everything baseline (every tick
// re-evaluates the whole fleet) the win is measured against.
func benchNetworkBlockers(b *testing.B, size int, region bool) {
	side := 6000 * math.Sqrt(float64(size)/1000)
	env := NewEnvironment(side, side, 11)
	nw := env.NewNetwork(Pose{X: side / 2, Y: side / 2}, 13)
	nw.SetCouplingMode(CouplingSparse)
	nw.SetRegionInvalidation(region)
	nw.SetLeaseTTL(0, 0)
	rng := stats.NewRNG(99)
	for i := 0; i < size; i++ {
		pose := Facing(rng.Uniform(1, side-1), rng.Uniform(1, side-1), side/2, side/2)
		if _, err := nw.Join(uint32(i+1), pose, 1e6, TelemetryTraffic(5)); err != nil {
			b.Fatal(err)
		}
	}
	for k := 0; k < 8; k++ {
		ang := 2 * math.Pi * float64(k) / 8
		r := 50 + 150*float64(k)/7
		env.AddBlocker(side/2+r*math.Cos(ang), side/2+r*math.Sin(ang),
			-1.5*math.Sin(ang), 1.5*math.Cos(ang))
	}
	nw.Reports() // settle the post-join picture untimed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Run(2, 0.05, 0)
	}
}

// BenchmarkWalkerTick times one walker tick — Environment.Step, then
// Reports settling whatever the step invalidated — on a served 16-AP
// floor: 4×4 APs on a 20 m grid over an 80 m square, 125 telemetry
// nodes in front of each, factor-4 reuse, hysteresis roaming and eight
// people walking at 1.4 m/s. The region case is region-scoped
// invalidation, the stale case its stale-everything fallback. Each
// reports the deterministic invalidation work per tick next to the wall
// time, so a change in tick cost can be attributed to the corridor
// geometry (rect tests, leaf cells) or to the re-evaluations it causes
// (invalidations). Not part of the gated scaling curve: one floor is
// built once and shared by both cases.
func BenchmarkWalkerTick(b *testing.B) {
	nw, env := servedFloor(b, 8)
	b.ResetTimer()
	for _, region := range []bool{true, false} {
		name := "region"
		if !region {
			name = "stale"
		}
		b.Run(name, func(b *testing.B) {
			nw.SetRegionInvalidation(region)
			defer nw.SetRegionInvalidation(true)
			env.Step(0.25) // the first tick after a toggle pays for the switch
			nw.Reports()
			before := nw.RegionStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Step(0.25)
				nw.Reports()
			}
			b.StopTimer()
			st := nw.RegionStats()
			per := func(v, v0 int) float64 { return float64(v-v0) / float64(b.N) }
			b.ReportMetric(per(st.Regions, before.Regions), "regions/tick")
			b.ReportMetric(per(st.Corridors, before.Corridors), "corridors/tick")
			b.ReportMetric(per(st.RectTests, before.RectTests), "recttests/tick")
			b.ReportMetric(per(st.LeafVisits, before.LeafVisits), "leaves/tick")
			b.ReportMetric(per(st.NodesMarked, before.NodesMarked), "marked/tick")
			b.ReportMetric(per(st.StaleAll, before.StaleAll), "staleall/tick")
		})
	}
}

// BenchmarkFloorBuild times building the served 16-AP floor of
// BenchmarkWalkerTick — 2,000 joins, crossing into the sparse core at the
// 768-node crossover — and reports the time per join next to the
// deterministic bookkeeping work per build: dense pair kernels, dense
// matrix floats reserved, and the sparse discovery's visited cells and
// candidates. Nothing is evaluated during a build, so the dense counters
// stay zero. Not part of the gated scaling curve.
func BenchmarkFloorBuild(b *testing.B) {
	const joins = 16 * 125 // servedFloor fails the benchmark on any failed join
	var st CouplingStats
	for i := 0; i < b.N; i++ {
		nw, _ := servedFloor(b, 0)
		st = nw.CouplingStats()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(joins*b.N), "ns/join")
	b.ReportMetric(float64(st.DenseKernels), "densekernels/build")
	b.ReportMetric(float64(st.DenseFloats), "densefloats/build")
	b.ReportMetric(float64(st.DiscCells), "disccells/build")
	b.ReportMetric(float64(st.DiscCandidates), "disccands/build")
}

// servedFloor builds the served 16-AP floor: 4×4 APs on a 20 m grid over
// an 80 m square, 125 telemetry nodes in front of each, factor-4 reuse
// and hysteresis roaming. With walkers > 0 it then adds that many people
// walking at 1.4 m/s and settles the picture once.
func servedFloor(b *testing.B, walkers int) (*Network, *Environment) {
	const side, grid, perAP = 80.0, 4, 125
	apAt := func(k int) Pose {
		x := (float64(k%grid) + 0.5) * side / grid
		y := float64(k/grid)*side/grid + 1
		return Pose{X: x, Y: y, FacingRad: math.Pi / 2}
	}
	env := NewEnvironment(side, side, 21)
	nw := env.NewNetwork(apAt(0), 23)
	for k := 1; k < grid*grid; k++ {
		if _, err := nw.AddAP(apAt(k)); err != nil {
			b.Fatal(err)
		}
	}
	if err := nw.PlanReuse(4); err != nil {
		b.Fatal(err)
	}
	nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 3})
	nw.SetLeaseTTL(0, 0)
	rng := stats.NewRNG(25)
	// Nodes 1.5–9 m in front of their AP, within ±60° of boresight.
	near := func(ap Pose, rMin, rMax float64) (x, y float64) {
		r := math.Sqrt(rng.Uniform(rMin*rMin, rMax*rMax))
		th := ap.FacingRad + rng.Uniform(-math.Pi/3, math.Pi/3)
		return ap.X + r*math.Cos(th), ap.Y + r*math.Sin(th)
	}
	id := uint32(1)
	for k := 0; k < grid*grid; k++ {
		ap := apAt(k)
		for i := 0; i < perAP; i++ {
			x, y := near(ap, 1.5, 9)
			if _, err := nw.Join(id, Facing(x, y, ap.X, ap.Y), 1e6, TelemetryTraffic(0.2)); err != nil {
				b.Fatal(err)
			}
			id++
		}
	}
	if walkers == 0 {
		return nw, env
	}
	for w := 0; w < walkers; w++ {
		x, y := near(apAt(2*w), 1.5, 9)
		heading := rng.Uniform(0, 2*math.Pi)
		env.AddBlocker(x, y, 1.4*math.Cos(heading), 1.4*math.Sin(heading))
	}
	nw.Reports()
	return nw, env
}

func BenchmarkExtScale(b *testing.B) {
	var r experiments.ExtScaleResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtScale(uint64(i+1), 40)
	}
	b.ReportMetric(100*r.Usable60, "pct-usable-60GHz")
	b.ReportMetric(100*r.Usable24, "pct-usable-24GHz")
}
