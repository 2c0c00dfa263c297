package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minroute/internal/dataplane"
	"minroute/internal/graph"
	"minroute/internal/mpda"
	"minroute/internal/node"
	"minroute/internal/protonet"
	"minroute/internal/rng"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
	"minroute/internal/transport"
	"minroute/internal/wire"
)

// liveScale sizes the net1-live workload.
type liveScale struct {
	bringUps  int
	rate      float64 // open-loop packets per second
	openPkts  int
	window    int // closed-loop packets in flight
	closedPkt int
	// setupBatches batches of setupBatch set-ups are timed after each
	// chunk of the work.
	setupBatch, setupBatches int
}

func liveSize(tiny bool, seconds float64) liveScale {
	if tiny {
		return liveScale{bringUps: 4, rate: 5000, openPkts: 2000, window: 64, closedPkt: 5000, setupBatch: 2, setupBatches: 1}
	}
	return liveScale{bringUps: 100, rate: 20000, openPkts: int(3000 * seconds), window: 256,
		closedPkt: int(50000 * seconds), setupBatch: 10, setupBatches: 3}
}

// A bring-up that has not reached the reference hash bringUpDeadline after
// NewMesh was called has failed; the mesh is polled every pollEvery.
const (
	bringUpDeadline = 5 * time.Second
	pollEvery       = time.Millisecond
)

// Live packets are 8000 bits, the DES mean packet size.
const livePacketBits = 8000

// slots bounds the in-flight packet bookkeeping: the k-th packet a fabric
// sends travels on flow slot k mod slots, so the sinks' per-flow tables
// stay bounded, and its due time is found by slot. A slot is reused only
// after slots/rate seconds.
const slots = 1 << 14

// protoReference converges the same mpda.Router code over protonet's
// reliable FIFO queues and returns the canonical state hash a live mesh
// must reach.
func protoReference(g *graph.Graph, seed uint64) string {
	net := protonet.New(g, seed)
	nn := g.NumNodes()
	routers := make([]*mpda.Router, nn)
	for i := 0; i < nn; i++ {
		id := graph.NodeID(i)
		routers[i] = mpda.NewRouter(id, nn, net.Sender(id))
		net.Attach(id, routers[i])
	}
	net.BringUpAll(protoCost)
	net.Run(replayBudget)
	var b strings.Builder
	for _, r := range routers {
		b.WriteString(node.RouterSummary(r))
	}
	return node.HashState(b.String())
}

// meshConfig is the CI convergence oracle's setting: loopback UDP with
// ARQ under 10% control-datagram loss.
func meshConfig(seed uint64, data bool) node.MeshConfig {
	return node.MeshConfig{
		Fabric:         node.FabricUDP,
		Clock:          node.NewWallClock(),
		CostOf:         protoCost,
		Fault:          transport.Fault{Seed: seed, LossProb: 0.1},
		ARQ:            transport.ARQConfig{RTO: 0.01, MaxRTO: 0.2},
		HeartbeatEvery: 0.25,
		DeadAfter:      5,
		Data:           data,
	}
}

// errDeadline marks an operation that missed its deadline.
var errDeadline = errors.New("deadline exceeded")

// bringUp is one timed mesh bring-up.
type bringUp struct {
	newMeshMs, convergeMs float64
	lsuFrames, retx       float64
	err                   error
}

// awaitReference polls m every pollEvery until it is Ready, Passive, and at
// the reference hash, or the deadline passes.
func awaitReference(m *node.Mesh, ref string, deadline time.Time) error {
	for {
		if m.Ready() && m.Passive() && m.Hash() == ref {
			return nil
		}
		if time.Now().After(deadline) {
			if m.Ready() && m.Passive() {
				return fmt.Errorf("%w: mesh passive at hash %.12s, reference %.12s", errDeadline, m.Hash(), ref)
			}
			return fmt.Errorf("%w: mesh not converged", errDeadline)
		}
		time.Sleep(pollEvery)
	}
}

// runBringUp times node.NewMesh and convergence to the reference. With
// traced set, it counts the LSU frames sent and the ARQ retransmissions.
func runBringUp(g *graph.Graph, ref string, seed uint64, traced bool) bringUp {
	cfg := meshConfig(seed, false)
	var capt *telemetry.Capture
	if traced {
		capt = telemetry.NewCapture(g.NumNodes())
		cfg.Trace = node.NewTrace(capt.Trace)
		cfg.Metrics = capt.Metrics
	}
	var b bringUp
	t0 := time.Now()
	m, err := node.NewMesh(g, cfg)
	b.newMeshMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		b.err = err
		b.convergeMs = float64(bringUpDeadline.Milliseconds())
		return b
	}
	b.err = awaitReference(m, ref, t0.Add(bringUpDeadline))
	b.convergeMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	if b.err != nil {
		b.convergeMs = math.Max(b.convergeMs, float64(bringUpDeadline.Milliseconds()))
	} else if err := m.CheckLoopFree(); err != nil {
		b.err = fmt.Errorf("loop-freedom oracle: %w", err)
	}
	m.Close()
	if capt != nil {
		for _, ev := range capt.Trace.Events() {
			if ev.Kind == telemetry.KindLSUSend {
				b.lsuFrames++
			}
		}
		for _, mt := range capt.Metrics.Gather() {
			if strings.HasPrefix(mt.Name, "arq.retransmits.") {
				b.retx += mt.Value
			}
		}
	}
	return b
}

// tablesFromMesh converges a data-enabled mesh and copies every node's
// published forwarding table.
func tablesFromMesh(g *graph.Graph, ref string, seed uint64) ([][]dataplane.Entry, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		m, err := node.NewMesh(g, meshConfig(seed+uint64(attempt), true))
		if err != nil {
			return nil, err
		}
		err = awaitReference(m, ref, time.Now().Add(bringUpDeadline))
		if err == nil {
			err = m.CheckLoopFree()
		}
		if err != nil {
			m.Close()
			lastErr = err
			continue
		}
		out := make([][]dataplane.Entry, len(m.Nodes))
		for i, n := range m.Nodes {
			tbl := n.DataPlane().Table()
			for _, dst := range tbl.Dests() {
				hops, weights, _ := tbl.Route(dst)
				out[i] = append(out[i], dataplane.Entry{Dst: dst, Hops: hops, Weights: weights})
			}
		}
		m.Close()
		return out, nil
	}
	return nil, fmt.Errorf("table-source mesh: %w", lastErr)
}

// fabric is one forwarder per router on a MemNet, peered along the
// topology's links with the topology's link model as emulated latency.
type fabric struct {
	fwds []*dataplane.Forwarder
	clk  *node.WallClock
	// due[slot] holds the float64 bits of the due time of the packet
	// travelling on slot; the delivery callback reads it.
	due       []atomic.Uint64
	nextSlot  uint64
	sink      *sinkStats
	fabricLog *fabricLog
}

// sinkStats aggregates deliveries across all forwarders.
type sinkStats struct {
	mu        sync.Mutex
	delivered int64
	hops      int64
	// Open-loop chunks only: per delivered packet, its transit (seconds
	// from due to delivery); summed over packets, the modelled delay, the
	// delay the forwarder reports (modelled plus wall time since the send),
	// and the zero-load minimum-delay path of the packet's commodity.
	record                       bool
	transit                      []float64
	accumSum, delaySum, boundSum float64
	accumN                       int64
}

func newFabric(g *graph.Graph, flows []topo.Flow, logWrites bool) *fabric {
	nn := g.NumNodes()
	f := &fabric{
		fwds: make([]*dataplane.Forwarder, nn),
		clk:  node.NewWallClock(),
		due:  make([]atomic.Uint64, slots),
		sink: &sinkStats{},
	}
	bound := zeroLoadDelayMs(g, flows, livePacketBits)
	commodity := make(map[[2]graph.NodeID]int, len(flows))
	for x, fl := range flows {
		commodity[[2]graph.NodeID{fl.Src, fl.Dst}] = x
	}
	net := transport.NewMemNet()
	if logWrites {
		f.fabricLog = newFabricLog()
	}
	for i := 0; i < nn; i++ {
		id := graph.NodeID(i)
		conn := net.Bind()
		if f.fabricLog != nil {
			conn = &timedDatagram{Datagram: conn, log: f.fabricLog}
		}
		f.fwds[i] = dataplane.New(dataplane.Config{
			Self: id, Nodes: nn, Conn: conn, Clock: f.clk,
			LatencyOf: func(next graph.NodeID, sizeBits uint32) float64 {
				l, ok := g.Link(id, next)
				if !ok {
					return 0
				}
				return l.PropDelay + float64(sizeBits)/l.Capacity
			},
			OnDeliver: func(p *wire.DataPacket, delay float64) {
				now := delay - p.Accum + p.SentAt
				due := math.Float64frombits(f.due[p.FlowID%slots].Load())
				s := f.sink
				s.mu.Lock()
				s.delivered++
				s.hops += int64(p.Hops) + 1
				if s.record {
					s.transit = append(s.transit, now-due)
					s.accumSum += p.Accum
					s.delaySum += delay
					s.boundSum += bound[commodity[[2]graph.NodeID{p.Src, p.Dst}]] / 1e3
					s.accumN++
				}
				s.mu.Unlock()
			},
		})
	}
	for _, l := range g.Links() {
		f.fwds[l.From].SetPeer(l.To, f.fwds[l.To].LocalAddr(), nil)
	}
	return f
}

func (f *fabric) close() {
	for _, fw := range f.fwds {
		fw.Close()
	}
}

func (f *fabric) delivered() int64 {
	f.sink.mu.Lock()
	defer f.sink.mu.Unlock()
	return f.sink.delivered
}

// picker draws each packet's commodity in proportion to the NET1 demands.
type picker struct {
	cum []float64
	r   *rng.Source
}

func newPicker(flows []topo.Flow, seed uint64) *picker {
	p := &picker{r: rng.New(seed).Split(0x9e4)}
	total := 0.0
	for _, fl := range flows {
		total += fl.Rate
		p.cum = append(p.cum, total)
	}
	for i := range p.cum {
		p.cum[i] /= total
	}
	return p
}

func (p *picker) next() int {
	u := p.r.Float64()
	for i, c := range p.cum {
		if u < c {
			return i
		}
	}
	return len(p.cum) - 1
}

// genStats is what one generator chunk reported.
type genStats struct {
	sent, sendErrs int
	lateMax        float64 // seconds
	elapsed        float64 // seconds from the first send to the last delivery
	delivered      int64
	sendNs         []float64
	// transit holds the open-loop chunk's per-packet transit seconds.
	transit []float64
}

// openLoop sends count packets at rate from one goroutine (the caller's),
// each timed from when it was due, then waits for deliveries to settle.
func (f *fabric) openLoop(flows []topo.Flow, pick *picker, count int, rate float64, timeSends bool) genStats {
	var st genStats
	base := f.delivered()
	f.sink.mu.Lock()
	f.sink.record = true
	f.sink.transit = f.sink.transit[:0]
	f.sink.mu.Unlock()
	start := f.clk.Now()
	for k := 0; k < count; k++ {
		due := start + float64(k)/rate
		for f.clk.Now() < due {
			runtime.Gosched()
		}
		if late := f.clk.Now() - due; late > st.lateMax {
			st.lateMax = late
		}
		st.sendOne(f, flows, pick, due, timeSends)
	}
	f.settle(base+int64(st.sent-st.sendErrs), 2*time.Second)
	st.elapsed = f.clk.Now() - start
	st.delivered = f.delivered() - base
	f.sink.mu.Lock()
	f.sink.record = false
	st.transit = append([]float64(nil), f.sink.transit...)
	f.sink.mu.Unlock()
	return st
}

func (st *genStats) sendOne(f *fabric, flows []topo.Flow, pick *picker, due float64, timeSends bool) {
	fl := flows[pick.next()]
	slot := f.nextSlot % slots
	f.nextSlot++
	f.due[slot].Store(math.Float64bits(due))
	var t0 time.Time
	if timeSends {
		t0 = time.Now()
	}
	err := f.fwds[fl.Src].Send(fl.Dst, slot, livePacketBits)
	if timeSends {
		st.sendNs = append(st.sendNs, float64(time.Since(t0).Nanoseconds()))
	}
	st.sent++
	if err != nil {
		st.sendErrs++
	}
}

// closedLoop keeps window packets in flight until count were sent, then
// waits for the rest to arrive.
func (f *fabric) closedLoop(flows []topo.Flow, pick *picker, count, window int) genStats {
	var st genStats
	base := f.delivered()
	start := f.clk.Now()
	deadline := time.Now().Add(60 * time.Second)
	for k := 0; k < count; k++ {
		for int64(st.sent-st.sendErrs)-(f.delivered()-base) >= int64(window) {
			if time.Now().After(deadline) {
				st.elapsed = f.clk.Now() - start
				st.delivered = f.delivered() - base
				return st
			}
			runtime.Gosched()
		}
		st.sendOne(f, flows, pick, f.clk.Now(), false)
	}
	f.settle(base+int64(st.sent-st.sendErrs), 2*time.Second)
	st.elapsed = f.clk.Now() - start
	st.delivered = f.delivered() - base
	return st
}

// settle waits until want packets were delivered or patience runs out
// (lost packets never arrive).
func (f *fabric) settle(want int64, patience time.Duration) {
	deadline := time.Now().Add(patience)
	for f.delivered() < want && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}

// forwarderDrops sums every forwarder's drop counters and the loop/TTL
// subset the loop-freedom gate cares about.
func (f *fabric) forwarderDrops() (all, loops float64) {
	for _, fw := range f.fwds {
		s := fw.Snapshot()
		all += s.DropNoRoute + s.DropNoAddr + s.TTLExpired + s.Looped
		loops += s.TTLExpired + s.Looped
	}
	return all, loops
}

// checkDelivery fails a data plane that lost originated packets.
func checkDelivery(undelivered int) error {
	if undelivered > 0 {
		return fmt.Errorf("%d originated packets were not delivered", undelivered)
	}
	return nil
}

// checkForwarding fails a data plane that looped or expired packets.
func checkForwarding(loops float64) error {
	if loops > 0 {
		return fmt.Errorf("%g packets looped or expired their TTL", loops)
	}
	return nil
}

// liveWork is one pass of the live workload's measured work. The
// bring-ups run in chunks, each followed by one open-loop and one
// closed-loop forwarding chunk, so every metric samples the whole run and
// a host stall moves only the chunk it falls in.
type liveWork struct {
	bringUps []bringUp
	// wall is the bring-ups' and the closed-loop chunks' wall time, in
	// reference seconds (host.go); rawWall in measured seconds.
	wall, rawWall float64
	// Per forwarding chunk: open-loop transit p50 and p90 (seconds) and
	// closed-loop delivered packets per second.
	transitP50, transitP90, pps []float64
	transitN                    int
	lateMax                     float64
	sendNs                      []float64
	modelledMs, ratio           float64
	hopsPerPkt, drops           float64
	undelivered                 int
	fabricWrites, handoffs      []float64
}

// runNET1Live is the live-runtime workload.
func runNET1Live(cfg config, r *result) error {
	sc := liveSize(cfg.tiny, cfg.seconds)
	tn := topo.NET1()
	g := tn.Graph

	ref := protoReference(g, cfg.seed)
	// setup times the protonet reference and the fabric construction; the
	// fabric is torn down outside the timing.
	setup := &setupSampler{batch: sc.setupBatch, host: cfg.host, build: func() func() {
		protoReference(g, cfg.seed)
		return newFabric(g, tn.Flows, false).close
	}}

	// work runs the measured work; sampleSetup, if set, times set-ups
	// after each chunk.
	work := func(traced bool, parent int, sampleSetup bool) (liveWork, error) {
		var w liveWork
		tables, err := tablesFromMesh(g, ref, cfg.seed*1000+999)
		if err != nil {
			return w, err
		}
		f := newFabric(g, tn.Flows, traced)
		defer f.close()
		for i, fw := range f.fwds {
			fw.Publish(tables[i])
		}
		pick := newPicker(tn.Flows, cfg.seed)
		chunks := min(liveChunks, sc.bringUps)
		tm := &refTimer{m: cfg.host}
		for c := 0; c < chunks; c++ {
			sp := cfg.spans.begin("live.bringups", parent)
			for i := c * sc.bringUps / chunks; i < (c+1)*sc.bringUps/chunks; i++ {
				bsp := cfg.spans.begin("node.bringup", sp)
				t0 := time.Now()
				b := runBringUp(g, ref, cfg.seed*1000+uint64(i), traced)
				tm.add(time.Since(t0).Seconds())
				cfg.spans.end(bsp)
				w.bringUps = append(w.bringUps, b)
				r.op(r.check(fmt.Sprintf("bring-up %d", i), b.err))
			}
			cfg.spans.end(sp)

			sp = cfg.spans.begin("live.openloop", parent)
			open := f.openLoop(tn.Flows, pick, sc.openPkts/chunks, sc.rate, traced)
			cfg.spans.end(sp)
			sp = cfg.spans.begin("live.closedloop", parent)
			closed := f.closedLoop(tn.Flows, pick, sc.closedPkt/chunks, sc.window)
			cfg.spans.end(sp)
			// The open loop is paced at a fixed rate, so its length says
			// nothing about the program; wall_s holds the bring-ups and the
			// closed loop, which runs as fast as the forwarders go.
			tm.add(closed.elapsed)
			r.heapPoint()
			w.transitN += len(open.transit)
			w.transitP50 = append(w.transitP50, quantile(open.transit, 0.5))
			w.transitP90 = append(w.transitP90, quantile(open.transit, 0.9))
			w.pps = append(w.pps, float64(closed.delivered)/closed.elapsed)
			w.lateMax = math.Max(w.lateMax, open.lateMax)
			w.sendNs = append(w.sendNs, open.sendNs...)
			// Every originated packet is an operation; an undelivered one
			// failed.
			for _, st := range []genStats{open, closed} {
				r.ops(st.sent, st.sent-int(st.delivered))
				w.undelivered += st.sent - int(st.delivered)
			}
			if sampleSetup {
				setup.sample(sc.setupBatches)
			}
		}

		tm.flush()
		w.wall, w.rawWall = tm.ref, tm.raw
		r.check("yardstick", tm.err)

		s := f.sink
		s.mu.Lock()
		w.modelledMs = s.accumSum / float64(s.accumN) * 1e3
		w.ratio = s.delaySum / s.boundSum
		w.hopsPerPkt = float64(s.hops) / float64(s.delivered)
		s.mu.Unlock()

		var loops float64
		w.drops, loops = f.forwarderDrops()
		// Undelivered packets are already counted as failed operations.
		r.check("delivery", checkDelivery(w.undelivered))
		ok := r.check("forwarder-loops", checkForwarding(loops))
		ok = r.check("delay-bound", checkDelayBound(w.ratio, 1-1e-9)) && ok
		if !ok {
			r.op(false)
		}
		if f.fabricLog != nil {
			w.fabricWrites, w.handoffs = f.fabricLog.results()
		}
		return w, nil
	}

	if cfg.spans != nil {
		root := cfg.spans.begin("net1-live", 0)
		defer cfg.spans.end(root)
		base, err := work(false, root, false)
		if err != nil {
			return err
		}
		sp := cfg.spans.begin("net1-live.traced", root)
		traced, err := work(true, sp, false)
		cfg.spans.end(sp)
		if err != nil {
			return err
		}
		setOverhead(r, base.wall, traced.wall)
		setLiveLayers(r, base, traced)
		tables, err := tablesFromMesh(g, ref, cfg.seed*1000+998)
		if err != nil {
			return err
		}
		setMicroLayers(r, tables, g.NumNodes())
		hub, peer := hubLink(g)
		return replayControl(cfg, r, g, hub, peer, root)
	}

	w, err := work(false, 0, true)
	if err != nil {
		return err
	}
	if err := setup.report(r); err != nil {
		return err
	}
	r.set("wall_s", w.wall)
	r.set("sim_delay_ms", w.modelledMs)
	r.set("mp_opt_ratio", w.ratio)
	setLiveUnbounded(r, w)
	r.note("net1-live: converge samples=%d bring-ups; transit samples=%d open-loop packets at %g pps in %d chunks (generator at most %.3f ms late); closed loop %d packets per chunk, window %d; measured wall seconds %.6g",
		len(w.bringUps), w.transitN, sc.rate, len(w.pps), w.lateMax*1e3, sc.closedPkt/len(w.pps), sc.window, w.rawWall)

	return nil
}

// liveChunks is how many chunks the live work is cut into; the forwarding
// metrics are medians over chunks.
const liveChunks = 10

// setLiveUnbounded fills the unbounded metrics: convergence percentiles
// over the bring-ups, forwarding medians over chunks.
func setLiveUnbounded(r *result, w liveWork) {
	var conv []float64
	for _, b := range w.bringUps {
		conv = append(conv, b.convergeMs)
	}
	r.set("converge_ms_p50", quantile(conv, 0.5))
	r.set("converge_ms_p90", quantile(conv, 0.9))
	r.set("fwd_transit_us_p50", median(w.transitP50)*1e6)
	r.set("fwd_transit_us_p90", median(w.transitP90)*1e6)
	r.set("fwd_pps", median(w.pps))
}

// setLiveLayers fills the node, dataplane, fabric, and generator metrics:
// counts and timings from the untraced pass where tracing would distort
// them, decorator timings from the traced pass.
func setLiveLayers(r *result, base, traced liveWork) {
	var newMesh []float64
	var lsu, retx float64
	for _, b := range traced.bringUps {
		newMesh = append(newMesh, b.newMeshMs)
		lsu += b.lsuFrames
		retx += b.retx
	}
	n := float64(len(traced.bringUps))
	r.set("node.newmesh_ms", quantile(newMesh, 0.5))
	r.set("node.lsu_frames", lsu/n)
	r.set("arq.retransmits", retx/n)
	r.set("converge.samples", float64(len(base.bringUps)))
	r.set("dataplane.send_ns_p50", quantile(traced.sendNs, 0.5))
	r.set("dataplane.hops_per_pkt", base.hopsPerPkt)
	r.set("dataplane.drops", base.drops)
	r.set("fabric.write_ns_p50", quantile(traced.fabricWrites, 0.5))
	r.set("fabric.handoff_us_p50", quantile(append([]float64(nil), traced.handoffs...), 0.5)*1e6)
	r.set("fabric.handoff_us_p90", quantile(traced.handoffs, 0.9)*1e6)
	r.set("gen.late_ms_max", base.lateMax*1e3)
	r.set("fwd.transit_samples", float64(base.transitN))
	setLiveUnbounded(r, base)
}

// setMicroLayers times the table lookup and the data-frame codec alone.
func setMicroLayers(r *result, tables [][]dataplane.Entry, nn int) {
	compiled := make([]*dataplane.Table, len(tables))
	var dests [][]graph.NodeID
	for i, es := range tables {
		compiled[i] = dataplane.Compile(es, nil)
		dests = append(dests, compiled[i].Dests())
	}
	const lookups = 1 << 20
	hit := 0
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		n := i % nn
		if ds := dests[n]; len(ds) > 0 {
			if _, ok := compiled[n].Lookup(ds[i%len(ds)], uint64(i)); ok {
				hit++
			}
		}
	}
	r.set("dataplane.lookup_ns", float64(time.Since(t0).Nanoseconds())/lookups)
	if hit == 0 {
		r.check("lookup", fmt.Errorf("no lookup hit a route"))
	}

	pkt := &wire.DataPacket{Src: 0, Dst: 9, TTL: dataplane.DefaultTTL, FlowID: 12345, SentAt: 1.5, Accum: 0.004, SizeBits: livePacketBits}
	const codecOps = 1 << 18
	var blob []byte
	t0 = time.Now()
	for i := 0; i < codecOps; i++ {
		fr, err := wire.NewData(pkt)
		if err != nil {
			r.check("wire-encode", err)
			return
		}
		if blob, err = fr.Encode(); err != nil {
			r.check("wire-encode", err)
			return
		}
	}
	r.set("wire.encode_ns", float64(time.Since(t0).Nanoseconds())/codecOps)
	t0 = time.Now()
	for i := 0; i < codecOps; i++ {
		fr, err := wire.Decode(blob)
		if err == nil {
			_, err = wire.DataPacketOf(fr)
		}
		if err != nil {
			r.check("wire-decode", err)
			return
		}
	}
	r.set("wire.decode_ns", float64(time.Since(t0).Nanoseconds())/codecOps)
}

// fabricLog times a traced run's MemNet traffic: how long each WriteTo
// takes, and how long each datagram waits between the start of its WriteTo
// and the return of the ReadFrom that takes it. Datagrams are matched by
// content: every data frame carries its flow, send time, and hop count, so
// one frame's bytes are unique while it is in flight.
type fabricLog struct {
	mu       sync.Mutex
	pending  map[string]time.Time
	writes   []float64
	handoffs []float64
}

func newFabricLog() *fabricLog { return &fabricLog{pending: make(map[string]time.Time)} }

func (l *fabricLog) results() (writes, handoffs []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.writes...), append([]float64(nil), l.handoffs...)
}

// timedDatagram is a transport.Datagram decorator feeding a fabricLog.
type timedDatagram struct {
	transport.Datagram
	log *fabricLog
}

func (d *timedDatagram) WriteTo(b []byte, addr string) error {
	key := string(b)
	t0 := time.Now()
	d.log.mu.Lock()
	d.log.pending[key] = t0
	d.log.mu.Unlock()
	err := d.Datagram.WriteTo(b, addr)
	dt := time.Since(t0)
	d.log.mu.Lock()
	d.log.writes = append(d.log.writes, float64(dt.Nanoseconds()))
	d.log.mu.Unlock()
	return err
}

func (d *timedDatagram) ReadFrom(b []byte) (int, error) {
	n, err := d.Datagram.ReadFrom(b)
	if err != nil {
		return n, err
	}
	now := time.Now()
	key := string(b[:n])
	d.log.mu.Lock()
	if t0, ok := d.log.pending[key]; ok {
		delete(d.log.pending, key)
		d.log.handoffs = append(d.log.handoffs, now.Sub(t0).Seconds())
	}
	d.log.mu.Unlock()
	return n, nil
}
