package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"minroute/internal/core"
	"minroute/internal/dijkstra"
	"minroute/internal/graph"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
)

// desPhase is one named stretch of simulated time. start, if set, runs at
// the phase's first instant (fault injection, the warmup boundary).
type desPhase struct {
	name  string
	until float64
	start func(n *core.Network)
}

// desRun is what one simulation reported.
type desRun struct {
	wall      float64            // summed wall seconds inside RunUntil
	phaseWall map[string]float64 // wall seconds per phase
	events    int64
	ctrlBits  float64
	report    *core.Report
	loopErr   error
	// alloc/gc deltas over the simulation (runtime/metrics); traced runs,
	// which read them, sample no setup in between.
	allocBytes, gcCPU, totalCPU float64
	// traced-run telemetry: events counted by kind, and ring overwrites.
	kinds   map[telemetry.Kind]int64
	dropped float64
}

// sliceStep is the simulated time one RunUntil call advances. An sf120
// slice takes about 0.25 s of wall time, so a yardstick pass (host.go)
// follows each one: the host can change speed within a second.
const sliceStep = 0.25

// traceRingCap is the per-router telemetry ring of a traced simulation:
// router-level events only (phases, LSUs, commits, allocation steps,
// drops), so a whole sf120 run fits without a ring wrapping and every event
// can be counted at the end.
const traceRingCap = 1 << 20

// routerTelemetry attaches one router-level telemetry sink to every router
// of n and returns its tracer.
func routerTelemetry(n *core.Network) *telemetry.Tracer {
	nn := n.Graph.NumNodes()
	reg := telemetry.NewRegistry(telemetry.DefaultBucketWidth)
	p := &telemetry.NodeProbes{
		Tracer:    telemetry.NewTracer(nn, traceRingCap),
		ActiveDur: reg.Histogram("mpda.active.duration"),
		Converge: &telemetry.ConvergeMeter{
			Lag:  reg.Histogram("converge.lag"),
			Last: reg.Gauge("converge.last"),
		},
	}
	p.ActiveDur.Grow(nn)
	p.Converge.GrowSlots(nn)
	for _, node := range n.Nodes {
		node.SetTelemetry(p)
	}
	return p.Tracer
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() (alloc, gc, total float64) {
	metrics.Read(runtimeSamples)
	f := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return f(runtimeSamples[0]), f(runtimeSamples[1]), f(runtimeSamples[2])
}

// simulate drives n through phases in sliceStep slices. measureFrom is the
// warmup boundary: delay statistics start there. Only the RunUntil calls
// are timed, and added to tm; output checks and between, if non-nil, run
// after each phase, outside the timing. traced attaches router-level
// telemetry and counts its events by kind at the end.
func simulate(n *core.Network, phases []desPhase, measureFrom float64, traced bool, spans *spanLog, parent int, between func(), tm *refTimer) desRun {
	res := desRun{phaseWall: make(map[string]float64), kinds: make(map[telemetry.Kind]int64)}
	var tr *telemetry.Tracer
	if traced {
		tr = routerTelemetry(n)
	}

	// Every simulation starts from a collected heap, so GC pacing does not
	// depend on what ran before it.
	runtime.GC()
	a0, g0, c0 := readRuntime()
	n.Start()
	now := 0.0
	measuring := false
	for _, ph := range phases {
		if ph.start != nil {
			ph.start(n)
		}
		if now >= measureFrom && !measuring {
			n.BeginMeasurement()
			measuring = true
		}
		sp := spans.begin("des.phase."+ph.name, parent)
		for now < ph.until-1e-12 {
			next := math.Min(now+sliceStep, ph.until)
			t0 := time.Now()
			n.RunUntil(next)
			dt := time.Since(t0).Seconds()
			now = next
			res.wall += dt
			tm.add(dt)
			res.phaseWall[ph.name] += dt
		}
		spans.end(sp)
		if err := n.CheckLoopFree(); err != nil && res.loopErr == nil {
			res.loopErr = fmt.Errorf("after phase %s: %w", ph.name, err)
		}
		if between != nil {
			between()
			// Collect between's garbage here, not inside the next timed
			// slice.
			runtime.GC()
		}
	}
	a1, g1, c1 := readRuntime()
	for _, ev := range tr.Events() {
		res.kinds[ev.Kind]++
	}
	res.dropped = float64(tr.Dropped())
	res.allocBytes, res.gcCPU, res.totalCPU = a1-a0, g1-g0, c1-c0
	for _, e := range n.Engines() {
		res.events += e.EventsFired()
	}
	res.ctrlBits = n.ControlBits()
	res.report = n.Report()
	return res
}

// zeroLoadDelayMs returns, per flow, the minimum end-to-end delay any path
// offers at zero load: propagation plus one mean packet's transmission on
// every hop, in milliseconds. No routing can beat it, so it bounds OPT's
// delay from below.
func zeroLoadDelayMs(g *graph.Graph, flows []topo.Flow, packetBits float64) []float64 {
	view := dijkstra.GraphView{G: g, Cost: func(l *graph.Link) float64 {
		return l.PropDelay + packetBits/l.Capacity
	}}
	out := make([]float64, len(flows))
	for x, f := range flows {
		out[x] = dijkstra.Run(view, f.Src).Dist[f.Dst] * 1e3
	}
	return out
}

// stretch is the flow-averaged delay over the flow-averaged bound, both
// over the flows that delivered packets (Report.AvgMeanDelayMs's set).
func stretch(delayMs, boundMs []float64) float64 {
	var d, b float64
	for x := range delayMs {
		if math.IsNaN(delayMs[x]) {
			continue
		}
		d += delayMs[x]
		b += boundMs[x]
	}
	return d / b
}

// checkDelayBound fails a delay that beats the zero-load minimum-delay
// path, which no routing can: ratio is delay over that bound.
func checkDelayBound(ratio, floor float64) error {
	if !(ratio >= floor) {
		return fmt.Errorf("delay is %.4f of the zero-load minimum-delay path", ratio)
	}
	return nil
}

// checkReport fails a simulation that delivered nothing or reported a
// non-finite delay.
func checkReport(rep *core.Report) error {
	var del int64
	for _, d := range rep.Delivered {
		del += d
	}
	if del == 0 {
		return fmt.Errorf("no packet delivered")
	}
	if v := rep.AvgMeanDelayMs(); math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return fmt.Errorf("average delay %v", v)
	}
	return nil
}

// setDESLayers fills the des.* and router.* per-layer metrics from one
// untraced simulation.
func setDESLayers(r *result, runs ...desRun) {
	var events, alloc, gc, cpu, wall float64
	var offered, delivered, drops int64
	var lsus, bits float64
	for _, d := range runs {
		events += float64(d.events)
		alloc += d.allocBytes
		gc += d.gcCPU
		cpu += d.totalCPU
		wall += d.wall
		for x := range d.report.Offered {
			offered += d.report.Offered[x]
			delivered += d.report.Delivered[x]
		}
		drops += d.report.DropsNoRoute + d.report.DropsHopLimit + d.report.DropsQueue
		lsus += float64(d.report.ControlMessages)
		bits += d.ctrlBits
	}
	r.set("des.events", events)
	r.set("des.events_per_s", events/wall)
	r.set("des.alloc_bytes_per_event", alloc/events)
	if cpu > 0 {
		r.set("des.gc_cpu_share", gc/cpu)
	}
	r.set("router.pkts_offered", float64(offered))
	r.set("router.pkts_delivered", float64(delivered))
	r.set("router.drops", float64(drops))
	r.set("control.lsus", lsus)
	r.set("control.kbits", bits/1e3)
}

// setTelemetryCounts fills the telemetry-derived per-layer counts from a
// traced simulation.
func setTelemetryCounts(r *result, runs ...desRun) {
	var ih, ah, active int64
	for _, d := range runs {
		ih += d.kinds[telemetry.KindAllocInit]
		ah += d.kinds[telemetry.KindAllocAdjust]
		active += d.kinds[telemetry.KindPhaseActive]
	}
	r.set("alloc.ih_steps", float64(ih))
	r.set("alloc.ah_steps", float64(ah))
	r.set("mpda.active_phases", float64(active))
	var dropped float64
	for _, d := range runs {
		dropped += d.dropped
	}
	r.set("telemetry.events_dropped", dropped)
}

// setupSampler times a workload's setup: batches of builds, each started
// from a collected heap and converted to reference seconds (host.go) at a
// yardstick pass right after it. Workloads call sample at points spread
// over the whole run, outside every other timing, so setup_s sees the host
// over the same stretch as the measured work instead of in one burst. Measured once,
// first thing in a fresh process, the same builds spread by a factor of 1.6
// from run to run; on the shared host, the host's speed alone moved a
// 0.2-ms build by 1.6x between stretches of a few seconds.
type setupSampler struct {
	batch int
	// build builds one set-up; the returned func, if non-nil, tears it
	// down after its batch, outside the timing.
	build func() func()
	host  *hostMeter
	// perBuild and rawPerBuild are each batch's seconds per build, in
	// reference and in measured seconds.
	perBuild, rawPerBuild []float64
	err                   error
}

// sample times batches batches of s.batch builds.
func (s *setupSampler) sample(batches int) {
	releases := make([]func(), 0, s.batch)
	for i := 0; i < batches; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < s.batch; j++ {
			if rel := s.build(); rel != nil {
				releases = append(releases, rel)
			}
		}
		raw := time.Since(t0).Seconds() / float64(s.batch)
		pass, err := s.host.pass()
		if err != nil {
			s.err = err
			return
		}
		s.rawPerBuild = append(s.rawPerBuild, raw)
		s.perBuild = append(s.perBuild, raw*yardstickRefSeconds/pass)
		for _, rel := range releases {
			rel()
		}
		releases = releases[:0]
	}
}

// report sets setup_s, the median reference seconds per build over every
// batch, and prints the measured median next to it, with the host meter's
// passes.
func (s *setupSampler) report(r *result) error {
	if s.err != nil {
		return s.err
	}
	r.set("setup_s", median(s.perBuild))
	r.note("setup: %d batches of %d builds, measured median %.6g s per build; yardstick: %d passes, median %.3f ms (reference %.1f ms)",
		len(s.perBuild), s.batch, median(s.rawPerBuild), len(s.host.passes), median(s.host.passes)*1e3, yardstickRefSeconds*1e3)
	return nil
}

// repetitions is how many repetitions of a workload's fixed work fit in
// the run's seconds, given one takes about per seconds: a function of the
// arguments alone, so the same arguments give the same inputs.
func repetitions(cfg config, per float64) int {
	if cfg.tiny {
		return 1
	}
	return max(1, int(cfg.seconds/per))
}

// repSeed derives repetition k's input seed from the run seed. Each
// repetition draws its own inputs, so the median over repetitions averages
// over inputs as well as over host noise.
func repSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) }

// desIter is one timed repetition of a DES workload's fixed work.
type desIter struct {
	ok      bool    // every output check of the repetition passed
	wall    float64 // reference seconds of the fixed work after setup
	raw     float64 // the same in measured seconds
	delayMs float64 // MP average over flows of the mean delay
	ratio   float64 // MP delay over OPT's (or OPT's lower bound)
	sims    []desRun
}

// setOverhead reports the tracing overhead of a traced repetition.
func setOverhead(r *result, untraced, traced float64) {
	r.set("trace.untraced_wall_s", untraced)
	r.set("trace.traced_wall_s", traced)
	r.set("trace.overhead_s", traced-untraced)
}

// setDESEndToEnd fills the end-to-end metrics of a DES workload with their
// medians over the timed repetitions (wall_s in reference seconds), so a
// host stall during one repetition does not move them. A repetition whose operation failed is left out: its
// numbers count as failed, never as fast. With none left, the metrics stay
// unset and the run prints no result.
func setDESEndToEnd(r *result, iters []desIter) {
	var walls, raws, delays, ratios []float64
	for _, it := range iters {
		if !it.ok {
			continue
		}
		walls = append(walls, it.wall)
		raws = append(raws, it.raw)
		delays = append(delays, it.delayMs)
		ratios = append(ratios, it.ratio)
	}
	if len(walls) == 0 {
		return
	}
	r.set("wall_s", median(walls))
	r.set("sim_delay_ms", median(delays))
	r.set("mp_opt_ratio", median(ratios))
	r.note("repetitions=%d, %d passed every check; measured wall seconds per repetition: median %.6g",
		len(iters), len(walls), median(raws))
}
