package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"mmx"
)

// floorWorkload is a served deployment run floors times per pass: campus
// is one 16-AP floor, room a set of lab rooms whose statistics pool.
type floorWorkload struct {
	spec   floorSpec
	floors int
	// ticks is how many walker ticks the traced run times in each
	// invalidation mode, per floor.
	ticks int
}

var campus = floorWorkload{spec: campusSpec, floors: 1, ticks: 3}

// room builds ten lab rooms so the traced run's join population (1000)
// supports a p99.
var room = floorWorkload{spec: roomSpec, floors: 10, ticks: 10}

func (w floorWorkload) plan(seed uint64, f int) *floorPlan {
	return newFloorPlan(w.spec, seed*1000003+uint64(f))
}

// floorRun is one floor's build and run. joinS holds the times of
// successive chunks of joinChunk joins, runSeg the stretches of Run
// between consecutive membership events: pieces of identical work in
// every pass of the floor.
type floorRun struct {
	setupS        float64
	joinS, runSeg []float64
	st            mmx.RunStats
	digest        string
	ops           opCount
}

// joinChunk is how many consecutive joins one build piece holds: enough
// that a piece carries its share of garbage collection, few enough that a
// pass splits into many pieces.
const joinChunk = 100

// build joins every planned node in order and returns the time of each
// chunk of joinChunk joins. With a tracer each Join is also one span
// under parent.
func (f *floor) build(tr *tracer, parent int) ([]float64, error) {
	s := f.plan.spec
	var durs []float64
	t0 := time.Now()
	for i, n := range f.plan.nodes {
		id := tr.begin("simnet.Join", parent)
		info, err := f.nw.Join(n.id, n.pose, s.demandBps, s.traffic())
		tr.end(id)
		if (i+1)%joinChunk == 0 || i == len(f.plan.nodes)-1 {
			t1 := time.Now()
			durs = append(durs, t1.Sub(t0).Seconds())
			t0 = t1
		}
		if err != nil {
			return nil, fmt.Errorf("%s: join %d: %w", s.name, n.id, err)
		}
		f.info = append(f.info, info)
	}
	return durs, nil
}

func (f *floor) scheduleChurn() {
	s := f.plan.spec
	for _, c := range f.plan.churn {
		f.nw.ScheduleLeave(c.at, c.leaveID)
		f.nw.ScheduleJoin(c.at+0.005, c.join.id, c.join.pose, s.demandBps, s.traffic())
	}
}

// check verifies a finished run against its plan: books consistent,
// every scheduled churn event executed, membership as scheduled. It
// returns the digest of every simulated statistic.
func (f *floor) check(st mmx.RunStats) (string, error) {
	f.sdmShared = 0
	p := f.plan
	name := p.spec.name
	if err := f.nw.ValidateSpectrum(); err != nil {
		return "", fmt.Errorf("%s: spectrum after run: %w", name, err)
	}
	if st.Joins+st.JoinsFailed != len(p.churn) || st.Leaves != len(p.churn) {
		return "", fmt.Errorf("%s: churn: %d joins + %d failed, %d leaves; scheduled %d each",
			name, st.Joins, st.JoinsFailed, st.Leaves, len(p.churn))
	}
	want := len(p.nodes) - st.Leaves + st.Joins
	reports := f.nw.Reports()
	if len(reports) != want {
		return "", fmt.Errorf("%s: %d members after run, scheduled %d", name, len(reports), want)
	}
	for _, r := range reports {
		if r.SharedViaSDM {
			f.sdmShared++
		}
	}
	members := 0
	for _, a := range st.PerAP {
		members += a.Members
	}
	if members != want {
		return "", fmt.Errorf("%s: per-AP members sum to %d, scheduled %d", name, members, want)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%+v\n", st, reports)
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// ops counts the control operations a run attempted and the ones that
// failed: the build's joins, scheduled joins and leaves, keepalives and
// roams.
func (f *floor) ops(st mmx.RunStats) opCount {
	return opCount{
		attempted: len(f.plan.nodes) + 2*len(f.plan.churn) + st.Control.RenewsSent + st.Roams + st.RoamsFailed,
		failed:    st.JoinsFailed + st.Control.RenewsFailed + st.RoamsFailed,
	}
}

// runFloor sets up, builds and runs one floor without tracing.
func runFloor(p *floorPlan) (floorRun, error) {
	var r floorRun
	t0 := time.Now()
	f, err := p.setup()
	if err != nil {
		return r, err
	}
	r.setupS = time.Since(t0).Seconds()
	if r.joinS, err = f.build(nil, -1); err != nil {
		return r, err
	}
	if err := f.nw.ValidateSpectrum(); err != nil {
		return r, fmt.Errorf("%s: spectrum after build: %w", p.spec.name, err)
	}
	f.scheduleChurn()
	var marks []time.Time
	f.nw.OnMembershipChange(func(string, uint32) { marks = append(marks, time.Now()) })
	start := time.Now()
	r.st = f.nw.Run(p.spec.simS, p.spec.envStep, p.spec.outDB)
	marks = append(marks, time.Now())
	f.nw.OnMembershipChange(nil)
	r.runSeg = make([]float64, len(marks))
	for i, m := range marks {
		r.runSeg[i] = m.Sub(start).Seconds()
		start = m
	}
	if r.digest, err = f.check(r.st); err != nil {
		return r, err
	}
	r.ops = f.ops(r.st)
	return r, nil
}

// simTotals pools the simulated statistics of several runs.
type simTotals struct {
	bits, simS       float64
	samples, outages float64
	st               []mmx.RunStats
}

func (t *simTotals) add(st mmx.RunStats) {
	t.st = append(t.st, st)
	t.simS += st.Duration
	for _, n := range st.PerNode {
		t.bits += n.BitsDelivered
		t.samples += float64(n.SINRSamples)
		t.outages += n.OutageFraction * float64(n.SINRSamples)
	}
}

// goodputMbps is the mean delivered rate of one floor.
func (t *simTotals) goodputMbps() float64 { return t.bits / t.simS / 1e6 }

// outageFrac is the share of SINR samples below the outage threshold.
func (t *simTotals) outageFrac() float64 { return t.outages / t.samples }

// setupSamples is how many set-ups the untraced run times per floor
// before its passes, so setup_s is a median even when a pass is long.
const setupSamples = 15

// measure runs whole passes over the workload's floors until seconds
// have elapsed (at least one pass). Every pass repeats identical work and
// must reproduce the first pass's digests exactly. Build and run times
// are summed from the fastest pass of each piece — each chunk of joins,
// and each stretch of Run between two membership events: other tenants of a shared
// machine only ever slow a piece down, so its fastest pass is the
// steadiest estimate of the program's own cost.
func (w floorWorkload) measure(seed uint64, seconds float64, out *result) error {
	var setups, rss []float64
	for f := 0; f < w.floors; f++ {
		for k := 0; k < setupSamples; k++ {
			t0 := time.Now()
			if _, err := w.plan(seed, f).setup(); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	start := time.Now()
	first := make([]string, w.floors)
	bestJoin := make([][]float64, w.floors)
	bestSeg := make([][]float64, w.floors)
	var tot simTotals
	for pass := 0; pass == 0 || time.Since(start).Seconds() < seconds; pass++ {
		for f := 0; f < w.floors; f++ {
			// Start every floor from a collected heap, so no pass pays
			// for the garbage of the one before it and the floor's peak
			// memory is its own.
			resetPeakRSS()
			t0 := time.Now()
			p := w.plan(seed, f)
			genS := time.Since(t0).Seconds()
			r, err := runFloor(p)
			if err != nil {
				return err
			}
			// A floor's set-up includes drawing its inputs.
			setups = append(setups, genS+r.setupS)
			rss = append(rss, peakRSSMB())
			if pass == 0 {
				first[f] = r.digest
				tot.add(r.st)
				out.ops.add(r.ops)
				fmt.Printf("floor %d: digest %s  %s\n", f, r.digest, statsLine(r.st))
			} else if r.digest != first[f] {
				return fmt.Errorf("%s floor %d: pass %d digest %s differs from pass 0 digest %s", w.spec.name, f, pass, r.digest, first[f])
			}
			fmt.Printf("pass %d floor %d: build %.3fs run %.3fs\n", pass, f, sum(r.joinS), sum(r.runSeg))
			if bestJoin[f], err = fastest(bestJoin[f], r.joinS); err != nil {
				return fmt.Errorf("%s floor %d joins: %w", w.spec.name, f, err)
			}
			if bestSeg[f], err = fastest(bestSeg[f], r.runSeg); err != nil {
				return fmt.Errorf("%s floor %d run: %w", w.spec.name, f, err)
			}
		}
		out.passes++
	}
	h := sha256.New()
	for _, d := range first {
		h.Write([]byte(d))
	}
	fmt.Printf("digest %s: %d floors x %d passes, all passes identical\n", hex.EncodeToString(h.Sum(nil)[:12]), w.floors, out.passes)
	var buildS, runS float64
	for f := range bestSeg {
		buildS += sum(bestJoin[f])
		runS += sum(bestSeg[f])
	}
	out.metric("setup_s", median(setups), "s")
	out.metric("build_s", buildS/float64(w.floors), "s")
	out.metric("sim_speed", tot.simS/runS, "s/s")
	out.metric("goodput_mbps", tot.goodputMbps(), "Mbps")
	out.metric("outage_frac", tot.outageFrac(), "ratio")
	out.metric("peak_rss_mb", median(rss), "MB")
	return nil
}

func statsLine(st mmx.RunStats) string {
	frames := 0
	for _, n := range st.PerNode {
		frames += n.FramesSent
	}
	return fmt.Sprintf("joins=%d/%d leaves=%d roams=%d/%d renews=%d/%d frames=%d goodput=%.3fMbps",
		st.Joins, st.JoinsFailed, st.Leaves, st.Roams, st.RoamsFailed,
		st.Control.RenewsSent, st.Control.RenewsFailed, frames, st.TotalGoodputBps()/1e6)
}

// traced runs one pass with a span around every layer call, then the
// walker-tick, cached-evaluation and layer replays, and reports the
// per-layer metrics.
func (w floorWorkload) traced(seed uint64, tr *tracer, out *result) error {
	root := tr.begin("bench.floors", -1)
	var joinAllocs, joins float64
	var runNs, frames float64
	var tot simTotals
	var first *floor
	var ms runtime.MemStats
	sdm := 0
	for fi := 0; fi < w.floors; fi++ {
		runtime.GC()
		fr := tr.begin("bench.floor", root)
		p := w.plan(seed, fi)
		sp := tr.begin("bench.setup", fr)
		f, err := p.setup()
		tr.end(sp)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		if _, err := f.build(tr, fr); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		joinAllocs += float64(ms.Mallocs - m0)
		joins += float64(len(p.nodes))
		if err := f.nw.ValidateSpectrum(); err != nil {
			return fmt.Errorf("%s: spectrum after build: %w", p.spec.name, err)
		}
		f.scheduleChurn()
		rs := tr.begin("simnet.Run", fr)
		st := f.nw.Run(p.spec.simS, p.spec.envStep, p.spec.outDB)
		runNs += float64(tr.end(rs))
		for _, n := range st.PerNode {
			frames += float64(n.FramesSent)
		}
		if _, err := f.check(st); err != nil {
			return err
		}
		tot.add(st)
		sdm += f.sdmShared
		out.ops.add(f.ops(st))
		w.timeTicks(f, tr, fr)
		tr.end(fr)
		if first == nil {
			first = f
		}
	}
	tr.end(root)

	sp := tr.spans
	joinUs := scale(spanDurations(sp, "simnet.Join"), 1e-3)
	p50, err := percentileAt(joinUs, 0.5)
	if err != nil {
		return err
	}
	p99, err := percentileAt(joinUs, 0.99)
	if err != nil {
		return err
	}
	out.metric("simnet.join.us_p50", p50, "us")
	out.metric("simnet.join.us_p99", p99, "us")
	out.metric("simnet.join.allocs", joinAllocs/joins, "count")
	out.metric("simnet.tick.ms_p50", median(scale(spanDurations(sp, "simnet.tick"), 1e-6)), "ms")
	out.metric("simnet.tick_stale.ms_p50", median(scale(spanDurations(sp, "simnet.tick_stale"), 1e-6)), "ms")
	out.metric("simnet.reports.ms", median(scale(spanDurations(sp, "simnet.Reports.cached"), 1e-6)), "ms")
	out.metric("simnet.run.ns_per_frame", runNs/frames, "ns")
	out.metric("trace.sim_speed", tot.simS/(runNs*1e-9), "s/s")
	simCounts(tot.st, out)
	out.metric("count.sdm_shared", float64(sdm), "count")
	return replayLayers(first, seed, tr, out)
}

// timeTicks times walker ticks — Environment.Step then Network.Reports — on
// a built network, first with region-scoped invalidation and then with
// it switched off, and finally the cached evaluation with nothing moved.
func (w floorWorkload) timeTicks(f *floor, tr *tracer, parent int) {
	dt := f.plan.spec.envStep
	tick := func(name string) {
		t := tr.begin(name, parent)
		s := tr.begin("channel.Step", t)
		f.env.Step(dt)
		tr.end(s)
		r := tr.begin("simnet.Reports", t)
		f.nw.Reports()
		tr.end(r)
		tr.end(t)
	}
	for k := 0; k < w.ticks; k++ {
		tick("simnet.tick")
	}
	f.nw.SetRegionInvalidation(false)
	for k := 0; k < w.ticks; k++ {
		tick("simnet.tick_stale")
	}
	f.nw.SetRegionInvalidation(true)
	for k := 0; k < w.ticks; k++ {
		r := tr.begin("simnet.Reports.cached", parent)
		f.nw.Reports()
		tr.end(r)
	}
}

// simCounts reports the simulated work counts, summed over runs. They
// repeat exactly for a seed; a speed-only change must not move them.
func simCounts(sts []mmx.RunStats, out *result) {
	var c struct {
		joins, leaves, joinsFailed, roams, roamsFailed               int
		renews, renewsFailed, rejoins, resyncs, expiries, promotions int
		sent, lost, dropped, outage                                  int
	}
	for _, st := range sts {
		c.joins += st.Joins
		c.leaves += st.Leaves
		c.joinsFailed += st.JoinsFailed
		c.roams += st.Roams
		c.roamsFailed += st.RoamsFailed
		c.renews += st.Control.RenewsSent
		c.renewsFailed += st.Control.RenewsFailed
		c.rejoins += st.Control.Rejoins
		c.resyncs += st.Control.Resyncs
		c.expiries += st.Control.LeaseExpiries
		c.promotions += st.Control.Promotions
		for _, n := range st.PerNode {
			c.sent += n.FramesSent
			c.lost += n.FramesLost
			c.dropped += n.FramesDropped
			c.outage += n.FramesOutage
		}
	}
	for _, kv := range []struct {
		name string
		v    int
	}{
		{"count.joins", c.joins}, {"count.leaves", c.leaves}, {"count.joins_failed", c.joinsFailed},
		{"count.roams", c.roams}, {"count.roams_failed", c.roamsFailed},
		{"count.renews_sent", c.renews}, {"count.renews_failed", c.renewsFailed},
		{"count.rejoins", c.rejoins}, {"count.resyncs", c.resyncs},
		{"count.lease_expiries", c.expiries}, {"count.promotions", c.promotions},
		{"count.frames_sent", c.sent}, {"count.frames_lost", c.lost},
		{"count.frames_dropped", c.dropped}, {"count.frames_outage", c.outage},
	} {
		out.metric(kv.name, float64(kv.v), "count")
	}
}

func scale(xs []float64, k float64) []float64 {
	for i := range xs {
		xs[i] *= k
	}
	return xs
}
