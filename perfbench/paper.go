package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"minroute/internal/core"
	"minroute/internal/gallager"
	"minroute/internal/router"
	"minroute/internal/topo"
)

// fig10Gate is the repository's Fig. 10 shape gate on NET1's MP/OPT
// delay ratio (internal/experiments TestFig10ShapeMPTracksOPT).
const fig10Gate = 1.35

// paperScale sizes the net1-paper workload: the paper's Full horizon
// (experiments.Full) at one seed.
type paperScale struct {
	coldstart, warmup, horizon float64
	// setupBatches batches of setupBatch builds of the pair are timed
	// after each timed pair.
	setupBatch, setupBatches int
}

func paperSize(tiny bool) paperScale {
	if tiny {
		return paperScale{coldstart: 0.5, warmup: 2, horizon: 4, setupBatch: 2, setupBatches: 1}
	}
	return paperScale{coldstart: 2, warmup: 80, horizon: 140, setupBatch: 100, setupBatches: 5}
}

func paperPhases(sc paperScale) []desPhase {
	return []desPhase{
		{name: "coldstart", until: sc.coldstart},
		{name: "warmup", until: sc.warmup},
		{name: "measure", until: sc.horizon},
	}
}

// paperOptions mirrors the experiments harness: OPT runs Gallager's phi in
// ModeStatic, MP runs MP-TL-10-TS-2.
func paperOptions(mode router.Mode, seed uint64, sc paperScale) core.Options {
	opt := core.DefaultOptions()
	opt.Router.Mode = mode
	if mode == router.ModeStatic {
		opt.Router.Tl, opt.Router.Ts = 0, 0
	}
	opt.Seed = seed
	opt.Warmup = sc.warmup
	opt.Duration = sc.horizon - sc.warmup
	return opt
}

// paperPair is the Fig. 10 pair of networks, built before the clock starts.
type paperPair struct {
	net     *topo.Network
	opt, mp *core.Network
}

// checkRatio is the Fig. 10 gate.
func checkRatio(ratio float64) error {
	if !(ratio <= fig10Gate) {
		return fmt.Errorf("MP/OPT delay ratio %.4f exceeds the Fig. 10 gate %.2f", ratio, fig10Gate)
	}
	return nil
}

// checkSolve fails an OPT solve that errored or did not converge.
func checkSolve(sol *gallager.Result, err error) error {
	if err != nil {
		return err
	}
	if !sol.Converged {
		return fmt.Errorf("gallager.Solve stopped after %d iterations without converging", sol.Iterations)
	}
	return nil
}

// paperRepSeconds is about one Fig. 10 pair's wall time on the host the
// bounds were set on.
const paperRepSeconds = 3

// runNET1Paper is the paper-figure workload: the Fig. 10 OPT/MP pair.
func runNET1Paper(cfg config, r *result) error {
	sc := paperSize(cfg.tiny)
	build := func(seed uint64) paperPair {
		tn := topo.NET1()
		return paperPair{
			net: tn,
			opt: core.Build(tn, paperOptions(router.ModeStatic, seed, sc)),
			mp:  core.Build(topo.NET1(), paperOptions(router.ModeMP, seed, sc)),
		}
	}

	var solveMs []float64
	var solveIters int
	sim := func(seed uint64, traced bool, parent int) desIter {
		p := build(seed)
		sp := cfg.spans.begin("gallager.solve", parent)
		t0 := time.Now()
		sol, err := gallager.Solve(p.net.Graph, p.net.Flows, gallager.Options{MeanPacketBits: 8000})
		solve := time.Since(t0).Seconds()
		cfg.spans.end(sp)
		solveMs = append(solveMs, solve*1e3)
		ok := r.check("opt-converged", checkSolve(sol, err))
		if err != nil {
			r.op(false)
			return desIter{}
		}
		solveIters = sol.Iterations
		tm := &refTimer{m: cfg.host}
		tm.add(solve)
		p.opt.InstallStatic(sol.Phi)
		sp = cfg.spans.begin("des.sim.opt", parent)
		dOPT := simulate(p.opt, paperPhases(sc), sc.warmup, false, cfg.spans, sp, nil, tm)
		cfg.spans.end(sp)
		sp = cfg.spans.begin("des.sim.mp", parent)
		dMP := simulate(p.mp, paperPhases(sc), sc.warmup, traced, cfg.spans, sp, nil, tm)
		cfg.spans.end(sp)
		tm.flush()
		r.heapPoint()
		runtime.KeepAlive(p)
		ok = r.check("loop-free", dMP.loopErr) && ok
		ok = r.check("report-opt", checkReport(dOPT.report)) && ok
		ok = r.check("report-mp", checkReport(dMP.report)) && ok
		ok = r.check("yardstick", tm.err) && ok
		ratio := dMP.report.AvgMeanDelayMs() / dOPT.report.AvgMeanDelayMs()
		r.op(ok)
		return desIter{
			ok: ok, wall: tm.ref, raw: tm.raw, delayMs: dMP.report.AvgMeanDelayMs(),
			ratio: ratio, sims: []desRun{dOPT, dMP},
		}
	}

	if cfg.spans != nil {
		root := cfg.spans.begin("net1-paper", 0)
		defer cfg.spans.end(root)
		base := sim(repSeed(cfg.seed, 0), false, root)
		if len(base.sims) == 0 {
			return fmt.Errorf("OPT solve failed")
		}
		setDESLayers(r, base.sims...)
		r.set("des.coldstart_wall_s", base.sims[1].phaseWall["coldstart"])
		r.set("gallager.solve_ms", solveMs[0])
		r.set("gallager.iterations", float64(solveIters))
		sp := cfg.spans.begin("net1-paper.traced", root)
		traced := sim(repSeed(cfg.seed, 0), true, sp)
		cfg.spans.end(sp)
		setTelemetryCounts(r, traced.sims...)
		setOverhead(r, base.wall, traced.wall)
		g := topo.NET1().Graph
		hub, peer := hubLink(g)
		return replayControl(cfg, r, g, hub, peer, root)
	}

	// setup builds pair 0's networks.
	setup := &setupSampler{batch: sc.setupBatch, host: cfg.host, build: func() func() {
		build(repSeed(cfg.seed, 0))
		return nil
	}}
	var iters []desIter
	for k := 0; k < repetitions(cfg, paperRepSeconds); k++ {
		iters = append(iters, sim(repSeed(cfg.seed, k), false, 0))
		setup.sample(sc.setupBatches)
	}
	setDESEndToEnd(r, iters)
	if err := setup.report(r); err != nil {
		return err
	}
	// The gate applies to the reported ratio, a median over the run's
	// pairs, as the repository's gate applies to a figure's column means;
	// single seeds spread around it (printed below).
	if !cfg.tiny {
		r.op(r.check("fig10-gate", checkRatio(r.values["mp_opt_ratio"])))
	}
	ratios := make([]string, len(iters))
	for k, it := range iters {
		ratios[k] = fmt.Sprintf("%.3f", it.ratio)
	}
	r.note("net1-paper: %d Fig. 10 pairs (OPT then MP-TL-10-TS-2), %gs warmup + %gs measured; MP/OPT per pair %s; gallager.Solve median %.1f ms",
		len(iters), sc.warmup, sc.horizon-sc.warmup, strings.Join(ratios, " "), median(solveMs))
	return nil
}
