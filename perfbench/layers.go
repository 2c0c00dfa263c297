package main

import (
	"fmt"
	"time"

	"minroute/internal/graph"
	"minroute/internal/lfi"
	"minroute/internal/lsu"
	"minroute/internal/mpda"
	"minroute/internal/pda"
	"minroute/internal/protonet"
	"minroute/internal/rng"
)

// protoCost is the control-plane cost model the live mesh and its protonet
// reference share: propagation delay plus a small hop bias.
func protoCost(l *graph.Link) float64 { return l.PropDelay + 1e-4 }

// replayEvent is one call into a recorded router, kept for the PDA replay.
type replayEvent struct {
	kind    byte // 'u' link up, 'c' cost change, 'd' link down, 'l' LSU
	k       graph.NodeID
	cost    float64
	entries []lsu.Entry
}

// timedRouter is a protonet.Node decorator that times every call into an
// mpda.Router and, for one watched router, records the calls.
type timedRouter struct {
	r     *mpda.Router
	spans *spanLog
	total *float64
	rec   *[]replayEvent
}

func (t *timedRouter) timed(name string, call func()) {
	t0 := time.Now()
	call()
	d := time.Since(t0).Seconds()
	*t.total += d
	t.spans.sample(name, d)
}

func (t *timedRouter) record(e replayEvent) {
	if t.rec != nil {
		*t.rec = append(*t.rec, e)
	}
}

func (t *timedRouter) HandleLSU(m *lsu.Msg) {
	t.record(replayEvent{kind: 'l', k: m.From, entries: append([]lsu.Entry(nil), m.Entries...)})
	t.timed("mpda.handle_lsu", func() { t.r.HandleLSU(m) })
}

func (t *timedRouter) LinkUp(k graph.NodeID, cost float64) {
	t.record(replayEvent{kind: 'u', k: k, cost: cost})
	t.timed("mpda.link_event", func() { t.r.LinkUp(k, cost) })
}

func (t *timedRouter) LinkCostChange(k graph.NodeID, cost float64) {
	t.record(replayEvent{kind: 'c', k: k, cost: cost})
	t.timed("mpda.link_event", func() { t.r.LinkCostChange(k, cost) })
}

func (t *timedRouter) LinkDown(k graph.NodeID) {
	t.record(replayEvent{kind: 'd', k: k})
	t.timed("mpda.link_event", func() { t.r.LinkDown(k) })
}

// replayBudget bounds the deliveries of one protonet quiescence run.
const replayBudget = 1 << 24

// replayControl replays the workload's graph through protonet with every
// mpda.Router call timed: the cold-start flood, one cost-update round
// (every link's cost moved by a seeded factor, as a Tl update does), and
// the failure and restoration of hub's link to peer — adds, cost changes,
// and deletions. The hub's recorded call stream is then replayed into a
// fresh pda.Tables to time NTU, MTU, and the SPT separately.
func replayControl(cfg config, r *result, g0 *graph.Graph, hub, peer graph.NodeID, parent int) error {
	root := cfg.spans.begin("protonet.replay", parent)
	defer cfg.spans.end(root)
	g := g0.Clone()
	net := protonet.New(g, cfg.seed)
	nn := g.NumNodes()
	var total float64
	var hubCalls []replayEvent
	routers := make([]*mpda.Router, nn)
	for i := 0; i < nn; i++ {
		id := graph.NodeID(i)
		routers[i] = mpda.NewRouter(id, nn, net.Sender(id))
		tr := &timedRouter{r: routers[i], spans: cfg.spans, total: &total}
		if id == hub {
			tr.rec = &hubCalls
		}
		net.Attach(id, tr)
	}
	quiesce := func(name string, event func()) {
		sp := cfg.spans.begin("protonet."+name, root)
		event()
		net.Run(replayBudget)
		cfg.spans.end(sp)
	}
	quiesce("coldstart", func() { net.BringUpAll(protoCost) })
	rnd := rng.New(cfg.seed).Split(0xc057)
	quiesce("costround", func() {
		for _, l := range g.Links() {
			net.ChangeCost(l.From, l.To, protoCost(l)*(0.5+rnd.Float64()))
		}
	})
	l, ok := g.Link(hub, peer)
	if !ok {
		return fmt.Errorf("replay: no link %d-%d", hub, peer)
	}
	capacity, prop, cost := l.Capacity, l.PropDelay, protoCost(l)
	quiesce("failover", func() { net.FailLink(hub, peer) })
	quiesce("restore", func() { net.RestoreLink(hub, peer, capacity, prop, cost) })
	if err := checkRouters(nn, routers); err != nil {
		r.check("replay-loop-free", err)
		r.op(false)
	}

	lsuTimes := cfg.spans.samples["mpda.handle_lsu"]
	r.set("mpda.handle_lsu_calls", float64(len(lsuTimes)))
	r.set("mpda.handle_lsu_us_p50", quantile(append([]float64(nil), lsuTimes...), 0.5)*1e6)
	r.set("mpda.handle_lsu_us_p99", quantile(append([]float64(nil), lsuTimes...), 0.99)*1e6)
	r.set("mpda.replay_total_s", total)
	replayPDA(cfg, r, hub, nn, hubCalls, root)
	return nil
}

// checkRouters runs the loop-freedom oracle over the replayed routers.
func checkRouters(nn int, routers []*mpda.Router) error {
	views := make(map[graph.NodeID]lfi.RouterView, nn)
	for _, rt := range routers {
		views[rt.ID()] = rt
	}
	return lfi.CheckAllDestinations(nn, views)
}

// replayPDA feeds one router's recorded calls into a fresh pda.Tables:
// NTU (ApplyLSU) per LSU, then MTU after every call, then the SPT of the
// resulting main table on a copy — each timed on its own.
func replayPDA(cfg config, r *result, id graph.NodeID, nn int, calls []replayEvent, parent int) {
	sp := cfg.spans.begin("pda.replay", parent)
	defer cfg.spans.end(sp)
	t := pda.NewTables(id, nn)
	var apply, mtu, spt []float64
	var total, sptTotal float64
	timed := func(out *[]float64, call func()) float64 {
		t0 := time.Now()
		call()
		d := time.Since(t0).Seconds()
		*out = append(*out, d)
		return d
	}
	for _, e := range calls {
		switch e.kind {
		case 'u', 'c':
			t.SetAdjacent(e.k, e.cost)
		case 'd':
			t.RemoveAdjacent(e.k)
		case 'l':
			total += timed(&apply, func() { t.ApplyLSU(e.k, e.entries) })
		}
		total += timed(&mtu, func() { t.RunMTU() })
		c := t.Main().Clone()
		sptTotal += timed(&spt, func() { c.SPT(id) })
	}
	r.set("pda.apply_lsu_us_p50", quantile(apply, 0.5)*1e6)
	r.set("pda.run_mtu_calls", float64(len(mtu)))
	r.set("pda.run_mtu_us_p50", quantile(mtu, 0.5)*1e6)
	r.set("pda.replay_total_s", total)
	r.set("dijkstra.spt_us_p50", quantile(spt, 0.5)*1e6)
	r.set("dijkstra.replay_total_s", sptTotal)
}
