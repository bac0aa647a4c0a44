package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"mmx/internal/antenna"
	"mmx/internal/apdsp"
	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/dsp"
	"mmx/internal/mac"
	"mmx/internal/modem"
	"mmx/internal/netctl"
	"mmx/internal/stats"
	"mmx/internal/units"
)

// replayReps is how many times each layer replay repeats; the metric is
// the median repetition.
const replayReps = 7

// Replay results land in these sinks so the compiler cannot drop the
// calls being timed.
var (
	sinkC complex128
	sinkF float64
)

// replayLayers times the layers under the floor one at a time, each over
// inputs taken from the floor itself: its node→AP pairs through the pair
// kernel, its members' control sessions through the codec, the
// controller and the socket-free server, and its first AP's FDM members
// through the receive chain.
func replayLayers(f *floor, seed uint64, tr *tracer, out *result) error {
	root := tr.begin("bench.replay", -1)
	defer tr.end(root)
	pairKernel(f, tr, root, out)
	sessions := f.sessions()
	if err := controlPlane(sessions, f.plan.spec, tr, root, out); err != nil {
		return err
	}
	if err := memnetServer(sessions, f.plan.spec, seed, tr, root, out); err != nil {
		return err
	}
	return receiveChain(f.fdmAtAP0(), seed, tr, root, out)
}

// medianNsPerCall runs body (which makes calls calls) replayReps times
// under one span each and returns the median ns per call.
func medianNsPerCall(tr *tracer, name string, parent, calls int, body func()) float64 {
	var per []float64
	for r := 0; r < replayReps; r++ {
		id := tr.begin(name, parent)
		t0 := time.Now()
		body()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(calls))
		tr.end(id)
	}
	return median(per)
}

// pairKernel replays the floor's node→AP pairs in a channel environment
// rebuilt from the floor's seed: the same walls and walkers.
func pairKernel(f *floor, tr *tracer, parent int, out *result) {
	p := f.plan
	s := p.spec
	rng := stats.NewRNG(p.envSeed())
	env := channel.NewEnvironment(channel.NewRoom(s.width, s.height, rng), units.ISM24GHzCenter)
	for _, w := range p.walkers {
		env.AddBlocker(&channel.Blocker{
			Pos: channel.Vec2{X: w[0], Y: w[1]}, Radius: 0.3,
			LossDB: rng.Uniform(10, 15), Vel: channel.Vec2{X: w[2], Y: w[3]},
		})
	}
	type pair struct {
		link     *core.Link
		node, ap channel.Pose
		paths    []channel.Path
		dep, arr float64
	}
	pairs := make([]pair, len(p.nodes))
	for i, n := range p.nodes {
		ap := p.aps[f.served(i)]
		np := channel.Pose{Pos: channel.Vec2{X: n.pose.X, Y: n.pose.Y}, Orientation: n.pose.FacingRad}
		apPose := channel.Pose{Pos: channel.Vec2{X: ap.X, Y: ap.Y}, Orientation: ap.FacingRad}
		pairs[i] = pair{
			link: core.NewLink(env, np, apPose), node: np, ap: apPose,
			paths: env.Paths(np.Pos, apPose.Pos),
			dep:   np.AngleTo(apPose.Pos), arr: apPose.AngleTo(np.Pos),
		}
	}
	out.metric("core.evaluate.ns", medianNsPerCall(tr, "core.Link.Evaluate", parent, len(pairs), func() {
		for i := range pairs {
			sinkF += pairs[i].link.Evaluate().SNRWithOTAM
		}
	}), "ns")
	nPaths := 0
	for _, pr := range pairs {
		nPaths += len(pr.paths)
	}
	beams, apPat := antenna.NewNodeBeams(), antenna.NewAPAntenna()
	out.metric("channel.pathgain.ns", medianNsPerCall(tr, "channel.PathGain", parent, nPaths, func() {
		for i := range pairs {
			pr := &pairs[i]
			for _, path := range pr.paths {
				sinkC += env.PathGain(path, pr.node, beams.Beam1, pr.ap, apPat)
			}
		}
	}), "ns")
	out.metric("antenna.fieldgain.ns", medianNsPerCall(tr, "antenna.FieldGain", parent, 3*len(pairs), func() {
		for i := range pairs {
			pr := &pairs[i]
			sinkC += beams.Beam0.FieldGain(pr.dep) + beams.Beam1.FieldGain(pr.dep) + apPat.FieldGain(pr.arr)
		}
	}), "ns")
	const steps = 200
	out.metric("channel.step.us", 1e-3*medianNsPerCall(tr, "channel.Step", parent, steps, func() {
		for k := 0; k < steps; k++ {
			env.Step(s.envStep)
		}
	}), "us")
}

// session is one member's control-plane lifecycle: join at its serving
// AP, renews keepalives, release.
type session struct {
	id     uint32
	ap     int
	renews int
}

func (f *floor) sessions() []session {
	s := f.plan.spec
	k := int(s.simS / s.renew)
	out := make([]session, len(f.plan.nodes))
	for i, n := range f.plan.nodes {
		out[i] = session{id: n.id, ap: f.served(i), renews: k}
	}
	return out
}

// apBand is AP ap's reuse slice of the ISM band (the slice index only
// shifts frequencies; the work is the same).
func apBand(s floorSpec, ap int) mac.Band {
	slices := mac.ISM24GHz().Partition(s.reuse)
	return slices[ap%len(slices)]
}

// ctlStream is a recorded exchange sequence: every request the sessions
// sent, in order, with the AP it went to, and every reply.
type ctlStream struct {
	reqs    [][]byte
	reqAP   []int
	replies [][]byte
}

// recordStream drives the sessions through one controller per AP —
// all joins (with the share confirm a reject asks for), then the renew
// rounds, then all releases — and records the frames.
func recordStream(sessions []session, s floorSpec, naps int) (*ctlStream, error) {
	ctrls := make([]*mac.Controller, naps)
	for i := range ctrls {
		ctrls[i] = mac.NewController(apBand(s, i))
	}
	st := &ctlStream{}
	seq := make(map[uint32]uint32, len(sessions))
	now := 0.0
	send := func(ap int, msg any) (any, error) {
		raw, err := mac.Marshal(msg)
		if err != nil {
			return nil, err
		}
		now += 1e-4
		reply, err := ctrls[ap].HandleAtAppend(nil, raw, now)
		if err != nil {
			return nil, fmt.Errorf("controller refused %T: %w", msg, err)
		}
		st.reqs = append(st.reqs, raw)
		st.reqAP = append(st.reqAP, ap)
		st.replies = append(st.replies, reply)
		return mac.Unmarshal(reply)
	}
	next := func(id uint32) uint32 { seq[id]++; return seq[id] }
	for _, ss := range sessions {
		reply, err := send(ss.ap, mac.JoinRequest{NodeID: ss.id, Seq: next(ss.id), DemandBps: s.demandBps})
		if err != nil {
			return nil, err
		}
		if rj, ok := reply.(mac.RejectMsg); ok {
			w := mac.BandwidthForRate(s.demandBps)
			if _, err := send(ss.ap, mac.ShareConfirmMsg{NodeID: ss.id, Seq: next(ss.id), ShareHz: rj.ShareHz, WidthHz: w, Harmonic: rj.Harmonic}); err != nil {
				return nil, err
			}
		}
	}
	for r := 0; r < sessions[0].renews; r++ {
		for _, ss := range sessions {
			reply, err := send(ss.ap, mac.RenewMsg{NodeID: ss.id, Seq: next(ss.id)})
			if err != nil {
				return nil, err
			}
			if _, ok := reply.(mac.RenewAckMsg); !ok {
				return nil, fmt.Errorf("renew of %d answered with %T", ss.id, reply)
			}
		}
	}
	for _, ss := range sessions {
		if _, err := send(ss.ap, mac.ReleaseMsg{NodeID: ss.id, Seq: next(ss.id)}); err != nil {
			return nil, err
		}
	}
	for i, c := range ctrls {
		c.TakeNotifications()
		if n := c.LeaseCount(); n != 0 {
			return nil, fmt.Errorf("AP %d holds %d leases after every release", i, n)
		}
		if err := c.AuditBooks(); err != nil {
			return nil, fmt.Errorf("AP %d books: %w", i, err)
		}
	}
	return st, nil
}

// controlPlane times the codec over the recorded message mix and the
// controller replaying the recorded request stream.
func controlPlane(sessions []session, s floorSpec, tr *tracer, parent int, out *result) error {
	naps := 0
	for _, ss := range sessions {
		naps = max(naps, ss.ap+1)
	}
	st, err := recordStream(sessions, s, naps)
	if err != nil {
		return err
	}
	frames := append(append([][]byte(nil), st.reqs...), st.replies...)
	msgs := make([]any, len(frames))
	for i, b := range frames {
		if msgs[i], err = mac.Unmarshal(b); err != nil {
			return fmt.Errorf("decode recorded frame %d: %w", i, err)
		}
	}
	buf := make([]byte, 0, mac.MaxFrameLen)
	var encErr error
	out.metric("mac.codec.encode_ns", medianNsPerCall(tr, "mac.MarshalInto", parent, len(msgs), func() {
		for _, m := range msgs {
			if buf, err = mac.MarshalInto(buf[:0], m); err != nil {
				encErr = err
			}
		}
	}), "ns")
	var decErr error
	out.metric("mac.codec.decode_ns", medianNsPerCall(tr, "mac.Unmarshal", parent, len(frames), func() {
		for _, b := range frames {
			if _, err := mac.Unmarshal(b); err != nil {
				decErr = err
			}
		}
	}), "ns")
	if encErr != nil || decErr != nil {
		return fmt.Errorf("codec replay: encode %v, decode %v", encErr, decErr)
	}

	// The controller replay must reproduce the recorded replies byte for
	// byte; its time and allocations are per request.
	var per, allocs []float64
	var ms runtime.MemStats
	dst := make([]byte, 0, mac.MaxFrameLen)
	for r := 0; r < replayReps; r++ {
		ctrls := make([]*mac.Controller, naps)
		for i := range ctrls {
			ctrls[i] = mac.NewController(apBand(s, i))
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		id := tr.begin("mac.Controller.HandleAtAppend", parent)
		t0 := time.Now()
		now := 0.0
		mismatch := -1
		for i, raw := range st.reqs {
			now += 1e-4
			dst, err = ctrls[st.reqAP[i]].HandleAtAppend(dst[:0], raw, now)
			if err != nil || (mismatch < 0 && !bytes.Equal(dst, st.replies[i])) {
				mismatch = i
			}
		}
		el := time.Since(t0)
		tr.end(id)
		runtime.ReadMemStats(&ms)
		if mismatch >= 0 {
			return fmt.Errorf("controller replay diverged at request %d", mismatch)
		}
		per = append(per, float64(el.Nanoseconds())/float64(len(st.reqs)))
		allocs = append(allocs, float64(ms.Mallocs-m0)/float64(len(st.reqs)))
	}
	out.metric("mac.controller.ns_per_op", median(per), "ns")
	out.metric("mac.controller.allocs_per_op", median(allocs), "count")
	return nil
}

// memnetServer runs the sessions against one netctl.Server over MemNet:
// the daemon's ingest, shards and client retry machines with no kernel
// in the way. One goroutine drives the sessions one exchange at a time —
// all joins, then the renew rounds, then all releases — so every op is a
// full round trip and the server's books, and so its counts, repeat
// exactly.
func memnetServer(sessions []session, s floorSpec, seed uint64, tr *tracer, parent int, out *result) error {
	mn := netctl.NewMemNet(nil)
	ctrl := mac.NewController(mac.ISM24GHz())
	srv := netctl.NewServer(ctrl, netctl.NewRealClock(), netctl.ServerConfig{Readers: 1, Workers: runtime.GOMAXPROCS(0)})
	srv.Serve(mn.ServerConn())
	clients := make([]*netctl.Client, len(sessions))
	for i, ss := range sessions {
		clients[i] = netctl.NewClient(ss.id, s.demandBps, mn.Client(ss.id), seed)
	}
	ops, renewLost := 0, 0
	phase := func(name string, do func(c *netctl.Client) error) error {
		id := tr.begin(name, parent)
		defer tr.end(id)
		for _, c := range clients {
			if err := do(c); err != nil {
				return fmt.Errorf("node %d: %w", c.NodeID, err)
			}
			ops++
		}
		return nil
	}
	t0 := time.Now()
	err := phase("netctl.Client.Join", func(c *netctl.Client) error {
		_, err := c.Join()
		return err
	})
	for r := 0; r < sessions[0].renews && err == nil; r++ {
		err = phase("netctl.Client.Renew", func(c *netctl.Client) error {
			outcome, _, err := c.Renew()
			if outcome == netctl.RenewLost {
				renewLost++
			}
			return err
		})
	}
	if err == nil {
		err = phase("netctl.Client.Release", func(c *netctl.Client) error {
			_, err := c.Release()
			return err
		})
	}
	el := time.Since(t0)
	srv.Stop()
	st := srv.Stats()
	var sheds, rejoins, resyncs int
	for _, c := range clients {
		sheds += c.Sheds
		rejoins += c.Rejoins
		resyncs += c.Resyncs
		c.Close() //nolint:errcheck // in-memory endpoint
	}
	if err != nil {
		return fmt.Errorf("memnet sessions: %w", err)
	}
	if n := srv.LeaseCount(); n != 0 {
		return fmt.Errorf("memnet server: final leases=%d after every release", n)
	}
	if err := srv.Audit(); err != nil {
		return fmt.Errorf("memnet server audit: %w", err)
	}
	out.metric("netctl.memnet.ns_per_op", float64(el.Nanoseconds())/float64(ops), "ns")
	out.metric("netctl.useful_frac", float64(ops)/float64(st.Handled), "ratio")
	out.metric("netctl.server.shed", float64(st.Shed), "count")
	for _, kv := range []struct {
		name string
		v    uint64
	}{
		{"count.server.handled", st.Handled}, {"count.server.malformed", st.Malformed},
		{"count.server.promotes", st.Promotes}, {"count.server.expired", st.Expired},
		{"count.client.sheds", uint64(sheds)}, {"count.client.rejoins", uint64(rejoins)},
		{"count.client.resyncs", uint64(resyncs)}, {"count.client.renew_lost", uint64(renewLost)},
	} {
		out.metric(kv.name, float64(kv.v), "count")
	}
	return nil
}

// Receive-chain numerology: a 250 MS/s capture of the band on a 1 MHz
// channel grid, the AP numerology of cmd/mmx-ap's FDM mode.
const (
	rxRate    = 250e6
	rxBins    = 250
	rxOutRate = 2e6
	rxWidth   = 1e6
	rxSym     = 125e3
	rxFSK     = 500e3
	rxTaps    = 2751
	rxPayload = 4
)

// receiveChain synthesizes one capture in which each of n FDM members
// sends one frame on its own 1 MHz channel, then times the filterbank
// and the per-channel demodulators separately and checks every payload.
func receiveChain(n int, seed uint64, tr *tracer, parent int, out *result) error {
	n = min(max(n, 1), 240)
	center := units.ISM24GHzCenter
	rng := stats.NewRNG(seed ^ 0xfd)
	payloads := make([][]byte, n)
	frameSamples := modem.FrameBits(rxPayload) * int(rxRate/rxSym)
	wide := make([]complex128, frameSamples+6000)
	for i := range payloads {
		payloads[i] = make([]byte, rxPayload)
		for j := range payloads[i] {
			payloads[i][j] = byte(rng.Intn(256))
		}
		bits, err := modem.BuildFrame(payloads[i])
		if err != nil {
			return err
		}
		off := float64(i-n/2) * 1e6
		cfg := modem.Config{SampleRate: rxRate, SymbolRate: rxSym, F0: off - rxFSK/2, F1: off + rxFSK/2}
		dsp.Add(wide, modem.PadRandomOffset(modem.Synthesize(cfg, bits, complex(0.1, 0), complex(0.9, 0)), rng.Intn(4000)))
	}
	dsp.AddNoise(wide, 1e-5, rng)

	bank := apdsp.NewFilterBank(rxRate, center, rxBins)
	bank.Taps = rxTaps
	plan := make([]apdsp.BankChannel, n)
	for i := range plan {
		plan[i] = apdsp.BankChannel{ChannelHz: center + float64(i-n/2)*1e6}
	}
	if err := bank.Configure(rxWidth, rxOutRate, plan); err != nil {
		return err
	}
	outs, err := bank.ExtractAll(wide)
	if err != nil {
		return err
	}
	cfg := apdsp.ChannelConfig(rxOutRate, rxSym, rxFSK)
	recv := make([]*modem.StreamReceiver, n)
	for i := range recv {
		recv[i] = modem.NewStreamReceiver(cfg)
	}
	var bankMs, bankAllocs, demodMs []float64
	var ms runtime.MemStats
	decoded, spurious := 0, 0
	for r := 0; r < 3; r++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		id := tr.begin("apdsp.FilterBank.ExtractAllInto", parent)
		t0 := time.Now()
		outs, err = bank.ExtractAllInto(outs, wide)
		bankMs = append(bankMs, float64(time.Since(t0).Nanoseconds())*1e-6)
		tr.end(id)
		runtime.ReadMemStats(&ms)
		bankAllocs = append(bankAllocs, float64(ms.Mallocs-m0))
		if err != nil {
			return err
		}
		total := 0.0
		decoded, spurious = 0, 0
		for i := range recv {
			id := tr.begin("modem.StreamReceiver.ReceiveAll", parent)
			t0 := time.Now()
			frames := recv[i].ReceiveAll(outs[i], rxPayload)
			total += float64(time.Since(t0).Nanoseconds()) * 1e-6
			tr.end(id)
			for k, fr := range frames {
				if k == 0 && bytes.Equal(fr.Payload, payloads[i]) {
					decoded++
				} else {
					spurious++
				}
			}
		}
		demodMs = append(demodMs, total)
	}
	if decoded != n || spurious != 0 {
		return fmt.Errorf("receive chain: decoded %d of %d payloads, %d spurious", decoded, n, spurious)
	}
	out.metric("apdsp.bank.ms", median(bankMs), "ms")
	out.metric("apdsp.bank.allocs", median(bankAllocs), "count")
	out.metric("modem.demod.ms", median(demodMs), "ms")
	out.metric("count.rx.sent", float64(n), "count")
	out.metric("count.rx.decoded", float64(decoded), "count")
	out.metric("count.rx.spurious", float64(spurious), "count")
	return nil
}
