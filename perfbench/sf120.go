package main

import (
	"runtime"

	"minroute/internal/core"
	"minroute/internal/graph"
	"minroute/internal/topo"
)

// sfScale sizes the sf120-control workload.
type sfScale struct {
	routers, flows            int
	warmup, failAt, restoreAt float64
	horizon                   float64
	minRateMbps, maxRateMbps  float64
	// setupBatches batches of setupBatch builds are timed after each
	// phase of every timed simulation.
	setupBatch, setupBatches int
}

func sfSize(tiny bool) sfScale {
	if tiny {
		return sfScale{routers: 24, flows: 8, warmup: 0.5, failAt: 1, restoreAt: 1.5, horizon: 2,
			minRateMbps: 0.25, maxRateMbps: 0.75, setupBatch: 2, setupBatches: 1}
	}
	return sfScale{routers: 120, flows: 48, warmup: 2, failAt: 5, restoreAt: 8, horizon: 12,
		minRateMbps: 0.25, maxRateMbps: 0.75, setupBatch: 10, setupBatches: 4}
}

// sfGraphSeed fixes the sf120 topology. The run seed draws the flows, the
// traffic, and the timers; the graph itself stays put, because the control
// work of one 120-router scale-free graph differs from another's by up to
// a factor of 1.7, which would drown any change measured on it.
const sfGraphSeed = 1

// sfInput is one generated sf120 scenario.
type sfInput struct {
	net       *topo.Network
	hub, peer graph.NodeID
	boundMs   []float64
}

func sfGenerate(sc sfScale, seed uint64) sfInput {
	g := topo.ScaleFree(sfGraphSeed, sc.routers, 2, 10*topo.Mb, 2e-3)
	flows := topo.SynthFlows(seed, g, sc.flows, sc.minRateMbps*topo.Mb, sc.maxRateMbps*topo.Mb)
	// Hold the offered load at its expected total, so seeds move traffic
	// around the graph without changing how much of it there is.
	total := 0.0
	for _, f := range flows {
		total += f.Rate
	}
	flows = topo.ScaleFlows(flows, float64(len(flows))*(sc.minRateMbps+sc.maxRateMbps)/2*topo.Mb/total)
	hub, peer := hubLink(g)
	return sfInput{
		net: &topo.Network{Graph: g, Flows: flows}, hub: hub, peer: peer,
		boundMs: zeroLoadDelayMs(g, flows, 8000),
	}
}

// hubLink returns the highest-degree router (lowest ID on ties) and its
// lowest-ID neighbor whose link can fail without partitioning the graph.
func hubLink(g *graph.Graph) (graph.NodeID, graph.NodeID) {
	hub := graph.NodeID(0)
	for _, id := range g.Nodes() {
		if g.Degree(id) > g.Degree(hub) {
			hub = id
		}
	}
	for _, k := range g.Neighbors(hub) {
		c := g.Clone()
		c.RemoveLink(hub, k)
		c.RemoveLink(k, hub)
		if c.Connected() {
			return hub, k
		}
	}
	panic("perfbench: every hub link is a bridge")
}

func sfOptions(seed uint64, sc sfScale) core.Options {
	opt := core.DefaultOptions() // MP-TL-10-TS-2
	opt.Seed = seed
	opt.Warmup = sc.warmup
	opt.Duration = sc.horizon - sc.warmup
	return opt
}

// sfPhases is the fixed simulated schedule: the cold-start flood, a quiet
// stretch of Tl cost updates, a hub link failure, and its restoration.
func sfPhases(in sfInput, sc sfScale) []desPhase {
	return []desPhase{
		{name: "coldstart", until: sc.warmup},
		{name: "tlupdate", until: sc.failAt},
		{name: "failover", until: sc.restoreAt, start: func(n *core.Network) { n.FailLink(in.hub, in.peer) }},
		{name: "restore", until: sc.horizon, start: func(n *core.Network) { n.RestoreLink(in.hub, in.peer) }},
	}
}

// runSF120 is the control-plane-heavy workload.
func runSF120(cfg config, r *result) error {
	sc := sfSize(cfg.tiny)
	build := func(seed uint64) (sfInput, *core.Network) {
		in := sfGenerate(sc, seed)
		return in, core.Build(in.net, sfOptions(seed, sc))
	}

	// setup builds repetition 0's network.
	setup := &setupSampler{batch: sc.setupBatch, host: cfg.host, build: func() func() {
		build(repSeed(cfg.seed, 0))
		return nil
	}}

	sim := func(seed uint64, traced bool, parent int, between func()) (desIter, sfInput) {
		in, n := build(seed)
		tm := &refTimer{m: cfg.host}
		d := simulate(n, sfPhases(in, sc), sc.warmup, traced, cfg.spans, parent, between, tm)
		tm.flush()
		r.heapPoint()
		runtime.KeepAlive(n)
		ok := r.check("loop-free", d.loopErr)
		ok = r.check("report", checkReport(d.report)) && ok
		ok = r.check("yardstick", tm.err) && ok
		ratio := stretch(d.report.MeanDelayMs, in.boundMs)
		// Simulated packet sizes are random around the mean the bound
		// charges, hence the small allowance below 1.
		ok = r.check("delay-bound", checkDelayBound(ratio, 0.95)) && ok
		r.op(ok)
		return desIter{ok: ok, wall: tm.ref, raw: tm.raw, delayMs: d.report.AvgMeanDelayMs(), ratio: ratio, sims: []desRun{d}}, in
	}

	if cfg.spans != nil {
		root := cfg.spans.begin("sf120-control", 0)
		defer cfg.spans.end(root)
		base, in := sim(repSeed(cfg.seed, 0), false, root, nil)
		setDESLayers(r, base.sims...)
		for name, w := range base.sims[0].phaseWall {
			r.set("des."+name+"_wall_s", w)
		}
		sp := cfg.spans.begin("des.sim.traced", root)
		traced, _ := sim(repSeed(cfg.seed, 0), true, sp, nil)
		cfg.spans.end(sp)
		setTelemetryCounts(r, traced.sims...)
		setOverhead(r, base.wall, traced.wall)
		return replayControl(cfg, r, in.net.Graph, in.hub, in.peer, root)
	}

	var iters []desIter
	var in sfInput
	for k := 0; k < repetitions(cfg, sfRepSeconds); k++ {
		it, got := sim(repSeed(cfg.seed, k), false, 0, func() { setup.sample(sc.setupBatches) })
		iters = append(iters, it)
		in = got
	}
	setDESEndToEnd(r, iters)
	if err := setup.report(r); err != nil {
		return err
	}
	r.note("sf120-control: %d simulations; hub %d's link to %d fails at %gs and returns at %gs",
		len(iters), in.hub, in.peer, sc.failAt, sc.restoreAt)
	return nil
}

// sfRepSeconds is about one sf120 simulation's wall time, with its setup
// samples, on the host the bounds were set on.
const sfRepSeconds = 15
