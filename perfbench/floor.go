package main

import (
	"fmt"
	"math"

	"mmx"
	"mmx/internal/stats"
)

// floorSpec sizes one served deployment: APs, the nodes in front of them,
// the people walking through the beams, the control side channel and the
// churn scheduled during the run.
type floorSpec struct {
	name string
	// width and height of the floor (m); the floor's outer walls reflect.
	width, height float64
	// apCols x apRows APs, one per cell of an even grid over the floor,
	// each apY0 above its cell's lower edge and facing +y.
	apCols, apRows int
	apY0           float64
	reuse          int
	roam           bool
	// nodesPerAP nodes are placed in front of each AP, between rMin and
	// rMax metres and within ±halfAngle of its boresight, stratified over
	// rStrata range bands (see placeNear).
	nodesPerAP      int
	rStrata         int
	rMin, rMax      float64
	halfAngle       float64
	demandBps       float64
	traffic         func() mmx.Traffic
	walkers         int
	walkerSpeed     float64
	drop, dup, trnc float64
	leaseTTL, renew float64
	// churn leave/join pairs, evenly spaced over the run or, with
	// poisson, at the arrivals of a Poisson process.
	churn   int
	poisson bool
	simS    float64
	envStep float64
	outDB   float64
}

var campusSpec = floorSpec{
	name:  "campus",
	width: 80, height: 80,
	apCols: 4, apRows: 4, apY0: 1,
	reuse: 4, roam: true,
	nodesPerAP: 125, rStrata: 5, rMin: 1.5, rMax: 9, halfAngle: math.Pi / 3,
	demandBps: 1e6,
	traffic:   func() mmx.Traffic { return mmx.TelemetryTraffic(0.2) },
	walkers:   8, walkerSpeed: 1.4,
	drop: 0.05, dup: 0.02, trnc: 0.01,
	leaseTTL: 3, renew: 1,
	churn: 40,
	simS:  2, envStep: 0.25, outDB: 5,
}

var roomSpec = floorSpec{
	name:  "room",
	width: 6, height: 4,
	apCols: 1, apRows: 1, apY0: 0.3,
	reuse:      1,
	nodesPerAP: 100, rStrata: 4, rMin: 0.8, rMax: 3.5, halfAngle: math.Pi / 3,
	demandBps: 8e6,
	traffic:   func() mmx.Traffic { return mmx.VideoTraffic(8) },
	walkers:   4, walkerSpeed: 0.8,
	drop: 0.05, dup: 0.02, trnc: 0.01,
	leaseTTL: 3, renew: 1,
	churn: 10, poisson: true,
	simS: 20, envStep: 0.05, outDB: 5,
}

// nodePlan is one generated node: the benchmark draws every pose before
// the network exists, so the program only ever receives these inputs.
type nodePlan struct {
	id   uint32
	pose mmx.Pose
}

type churnPlan struct {
	at      float64
	leaveID uint32
	join    nodePlan
}

// floorPlan is the complete generated input of one floor run.
type floorPlan struct {
	spec    floorSpec
	aps     []mmx.Pose
	nodes   []nodePlan
	churn   []churnPlan
	walkers [][4]float64 // x, y, vx, vy
	seed    uint64
}

func (s floorSpec) apPose(k int) mmx.Pose {
	x := (float64(k%s.apCols) + 0.5) * s.width / float64(s.apCols)
	y := float64(k/s.apCols)*s.height/float64(s.apRows) + s.apY0
	return mmx.Pose{X: x, Y: y, FacingRad: math.Pi / 2}
}

// placeNear draws a node in front of AP k inside stratum cell c: the
// cells split the sector into rStrata range bands of equal area times
// nodesPerAP/rStrata angle bands, so every seed draws the same coverage
// mix and only the position inside each cell varies.
func (s floorSpec) placeNear(rng *stats.RNG, k, c int) mmx.Pose {
	ap := s.apPose(k)
	aStrata := s.nodesPerAP / s.rStrata
	band, slot := c%s.rStrata, (c/s.rStrata)%aStrata
	a0, a1 := s.rMin*s.rMin, s.rMax*s.rMax
	// Area-uniform radius inside the band.
	r := math.Sqrt(a0 + (a1-a0)*(float64(band)+rng.Float64())/float64(s.rStrata))
	th := ap.FacingRad + s.halfAngle*(2*(float64(slot)+rng.Float64())/float64(aStrata)-1)
	x := math.Min(math.Max(ap.X+r*math.Cos(th), 0.1), s.width-0.1)
	y := math.Min(math.Max(ap.Y+r*math.Sin(th), 0.1), s.height-0.1)
	return mmx.Facing(x, y, ap.X, ap.Y)
}

func newFloorPlan(s floorSpec, seed uint64) *floorPlan {
	rng := stats.NewRNG(seed)
	p := &floorPlan{spec: s, seed: seed}
	naps := s.apCols * s.apRows
	for k := 0; k < naps; k++ {
		p.aps = append(p.aps, s.apPose(k))
	}
	id := uint32(1)
	for k := 0; k < naps; k++ {
		for i := 0; i < s.nodesPerAP; i++ {
			p.nodes = append(p.nodes, nodePlan{id: id, pose: s.placeNear(rng, k, i)})
			id++
		}
	}
	// Churn: each event retires one starting member and admits a fresh
	// node in front of a random AP.
	n := len(p.nodes)
	t := 0.0
	for c := 0; c < s.churn; c++ {
		if s.poisson {
			t += rng.Exp(0.9 * s.simS / float64(s.churn))
			if t >= 0.95*s.simS {
				break
			}
		} else {
			t = 0.02 + 0.9*s.simS*float64(c)/float64(s.churn)
		}
		leave := p.nodes[(c*n/s.churn+rng.Intn(n/s.churn))%n].id
		k := rng.Intn(naps)
		p.churn = append(p.churn, churnPlan{at: t, leaveID: leave,
			join: nodePlan{id: id, pose: s.placeNear(rng, k, rng.Intn(s.nodesPerAP))}})
		id++
	}
	// Walkers start in front of APs spread evenly over the floor, each in
	// its own range and angle band, so every seed puts people across
	// sight lines at the same mix of distances.
	perAP := (s.walkers + naps - 1) / naps
	a0, a1 := s.rMin*s.rMin, s.rMax*s.rMax
	for w := 0; w < s.walkers; w++ {
		ap := s.apPose(w * naps / s.walkers)
		r := math.Sqrt(a0 + (a1-a0)*(float64(w%s.rStrata)+rng.Float64())/float64(s.rStrata))
		th := ap.FacingRad + s.halfAngle*(2*(float64(w%perAP)+rng.Float64())/float64(perAP)-1)
		heading := rng.Uniform(0, 2*math.Pi)
		p.walkers = append(p.walkers, [4]float64{
			math.Min(math.Max(ap.X+r*math.Cos(th), 0.5), s.width-0.5),
			math.Min(math.Max(ap.Y+r*math.Sin(th), 0.5), s.height-0.5),
			s.walkerSpeed * math.Cos(heading), s.walkerSpeed * math.Sin(heading)})
	}
	return p
}

// floor is one built deployment.
type floor struct {
	plan *floorPlan
	env  *mmx.Environment
	nw   *mmx.Network
	// info is each planned node's admission, in plan order, once built.
	info []mmx.NodeInfo
	// sdmShared counts members sharing spectrum via SDM after the run.
	sdmShared int
}

func (p *floorPlan) envSeed() uint64 { return p.seed ^ 0x5eed }

// served returns the AP serving planned node i at admission.
func (f *floor) served(i int) int { return f.info[i].AP }

// fdmAtAP0 counts the first AP's members that own an FDM channel.
func (f *floor) fdmAtAP0() int {
	n := 0
	for _, in := range f.info {
		if in.AP == 0 && !in.SharedViaSDM {
			n++
		}
	}
	return n
}

// setup creates the environment, APs and control plane: everything the
// run needs except the members.
func (p *floorPlan) setup() (*floor, error) {
	s := p.spec
	env := mmx.NewEnvironment(s.width, s.height, p.envSeed())
	nw := env.NewNetwork(p.aps[0], p.seed^0xa11)
	for _, ap := range p.aps[1:] {
		if _, err := nw.AddAP(ap); err != nil {
			return nil, fmt.Errorf("add AP: %w", err)
		}
	}
	if len(p.aps) > 1 {
		if err := nw.PlanReuse(s.reuse); err != nil {
			return nil, fmt.Errorf("plan reuse: %w", err)
		}
	}
	if s.roam {
		nw.SetRoamingPolicy(&mmx.RoamPolicy{HysteresisDB: 3})
	}
	nw.SetLossyControl(p.seed^0xc7, s.drop, s.dup, s.trnc)
	nw.SetLeaseTTL(s.leaseTTL, s.renew)
	for _, w := range p.walkers {
		env.AddBlocker(w[0], w[1], w[2], w[3])
	}
	return &floor{plan: p, env: env, nw: nw}, nil
}
