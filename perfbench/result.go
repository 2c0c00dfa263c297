package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a timed run (-trace 0) prints, in order. Every
// workload prints all of them; README.md gives each one's definition per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_delay_ms", "ms"},
	{"mp_opt_ratio", "ratio"},
	{"heap_live_peak_mb", "MB"},
}

// unbounded lists net1-live's convergence and packet-path metrics. They
// are end-to-end in kind, but on a shared host their run-to-run spread
// exceeded the largest bound a timed metric may have (README.md,
// Steadiness), so they are per-layer metrics without a bound: traced runs
// report them, and net1-live's timed runs print them after the bounded
// ones.
var unbounded = []metricDef{
	{"converge_ms_p50", "ms"},
	{"converge_ms_p90", "ms"},
	{"fwd_transit_us_p50", "us"},
	{"fwd_transit_us_p90", "us"},
	{"fwd_pps", "packets/s"},
}

// perLayer lists the metrics a traced run (-trace 1) prints, in order. A
// layer a workload does not run reports 0.
var perLayer = append(append([]metricDef(nil), unbounded...), []metricDef{
	{"des.events", "count"},
	{"des.events_per_s", "1/s"},
	{"des.alloc_bytes_per_event", "B"},
	{"des.gc_cpu_share", "ratio"},
	{"des.coldstart_wall_s", "s"},
	{"des.tlupdate_wall_s", "s"},
	{"des.failover_wall_s", "s"},
	{"des.restore_wall_s", "s"},
	{"control.lsus", "count"},
	{"control.kbits", "kbit"},
	{"mpda.handle_lsu_calls", "count"},
	{"mpda.handle_lsu_us_p50", "us"},
	{"mpda.handle_lsu_us_p99", "us"},
	{"mpda.active_phases", "count"},
	{"mpda.replay_total_s", "s"},
	{"pda.apply_lsu_us_p50", "us"},
	{"pda.run_mtu_calls", "count"},
	{"pda.run_mtu_us_p50", "us"},
	{"pda.replay_total_s", "s"},
	{"dijkstra.spt_us_p50", "us"},
	{"dijkstra.replay_total_s", "s"},
	{"router.pkts_offered", "count"},
	{"router.pkts_delivered", "count"},
	{"router.drops", "count"},
	{"alloc.ih_steps", "count"},
	{"alloc.ah_steps", "count"},
	{"telemetry.events_dropped", "count"},
	{"gallager.solve_ms", "ms"},
	{"gallager.iterations", "count"},
	{"node.newmesh_ms", "ms"},
	{"node.lsu_frames", "count"},
	{"arq.retransmits", "count"},
	{"converge.samples", "count"},
	{"dataplane.send_ns_p50", "ns"},
	{"dataplane.lookup_ns", "ns"},
	{"dataplane.hops_per_pkt", "hops"},
	{"dataplane.drops", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"fabric.write_ns_p50", "ns"},
	{"fabric.handoff_us_p50", "us"},
	{"fabric.handoff_us_p90", "us"},
	{"gen.late_ms_max", "ms"},
	{"fwd.transit_samples", "count"},
	{"trace.untraced_wall_s", "s"},
	{"trace.traced_wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}...)

// result collects one run's operation counts, failed checks, and metric
// values.
type result struct {
	attempted int
	failed    int
	checks    []string
	values    map[string]float64
	notes     []string
}

func newResult() *result { return &result{values: make(map[string]float64)} }

// op counts one attempted operation; ok=false counts it as failed.
func (r *result) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// ops counts n attempted operations of which bad failed.
func (r *result) ops(n, bad int) {
	r.attempted += n
	r.failed += bad
}

// check records a failed output check by name when err is non-nil and
// reports whether the check passed.
func (r *result) check(name string, err error) bool {
	if err == nil {
		return true
	}
	r.checks = append(r.checks, fmt.Sprintf("%s: %v", name, err))
	return false
}

func (r *result) set(name string, v float64) { r.values[name] = v }

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// heapPoint collects garbage and raises heap_live_peak_mb to the live heap
// left behind, if larger. Workloads call it, outside every timed span, at
// the points where their largest state is alive, so the peak is read at the
// same places on every run rather than wherever a GC happened to land.
func (r *result) heapPoint() {
	runtime.GC()
	metrics.Read(liveHeap)
	if v := float64(liveHeap[0].Value.Uint64()) / (1 << 20); v > r.values["heap_live_peak_mb"] {
		r.set("heap_live_peak_mb", v)
	}
}

// note records an informational line (sample counts, environment) printed
// ahead of the result.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the human-readable lines and, last, the one-line JSON
// result holding the metrics of defs. A missing or non-finite value is an
// error: every metric must be measured.
func (r *result) write(w io.Writer, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "FAILED CHECK %s\n", c)
	}
	out := jsonResult{
		Correct:   len(r.checks) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-28s %16.6f %s\n", d.Name, v, d.Unit)
	}
	if defs[0] == endToEnd[0] {
		for _, d := range unbounded {
			if v, ok := r.values[d.Name]; ok {
				fmt.Fprintf(w, "%-28s %16.6f %s (per-layer, not bounded)\n", d.Name, v, d.Unit)
			}
		}
	}
	fmt.Fprintf(w, "%-28s %16d\n%-28s %16d\n", "attempted", out.Attempted, "failed", out.Failed)
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
