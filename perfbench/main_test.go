package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"minroute/internal/core"
	"minroute/internal/dataplane"
	"minroute/internal/gallager"
	"minroute/internal/graph"
	"minroute/internal/node"
	"minroute/internal/topo"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// yardstick child (host.go).
func TestMain(m *testing.M) {
	if os.Getenv(yardstickEnv) == "1" {
		yardstickChild()
		return
	}
	os.Exit(m.Run())
}

// runTiny runs one workload at smoke size and returns its parsed result
// and its whole standard output.
func runTiny(t *testing.T, workload string, trace int) (jsonResult, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "3", "-seconds", "1",
		"-trace", fmt.Sprint(trace), "-tiny"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// TestEveryMetricPrintedWithUnit runs every workload at smoke size, timed
// and traced, and checks that each metric is printed by name with its unit,
// both in the text lines and in the JSON result.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for name := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", name, trace), func(t *testing.T) {
				res, text := runTiny(t, name, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, text)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					if !strings.Contains(text, d.Name+" ") || !strings.Contains(text, " "+d.Unit+"\n") {
						t.Errorf("metric %s %s missing from the text lines", d.Name, d.Unit)
					}
					if trace == 0 && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestFailedCheckIsReported checks that a failed check marks the result
// incorrect, counts its operation as failed, and is printed by name.
func TestFailedCheckIsReported(t *testing.T) {
	r := newResult()
	r.op(r.check("fig10-gate", checkRatio(1.5)))
	r.op(true)
	for _, d := range endToEnd {
		r.set(d.Name, 1)
	}
	var out bytes.Buffer
	if err := r.write(&out, endToEnd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "FAILED CHECK fig10-gate") {
		t.Errorf("check not printed by name:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("got correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestUnmeasuredMetricRefused checks that a run never prints a result with
// a metric missing or not finite.
func TestUnmeasuredMetricRefused(t *testing.T) {
	r := newResult()
	r.op(true)
	for _, d := range endToEnd {
		r.set(d.Name, 1)
	}
	r.set("wall_s", math.NaN())
	if err := r.write(&bytes.Buffer{}, endToEnd); err == nil {
		t.Error("a NaN metric was printed")
	}
	delete(r.values, "wall_s")
	if err := r.write(&bytes.Buffer{}, endToEnd); err == nil {
		t.Error("a missing metric was printed")
	}
}

func TestDESChecksFire(t *testing.T) {
	if checkRatio(1.36) == nil || checkRatio(math.NaN()) == nil || checkRatio(1.2) != nil {
		t.Error("Fig. 10 gate does not hold at 1.35")
	}
	if checkSolve(&gallager.Result{Iterations: 2000}, nil) == nil {
		t.Error("an unconverged OPT solve passed")
	}
	if checkSolve(nil, errors.New("no route")) == nil {
		t.Error("a failed OPT solve passed")
	}
	if checkSolve(&gallager.Result{Converged: true}, nil) != nil {
		t.Error("a converged OPT solve failed")
	}
	if checkDelayBound(0.9, 0.95) == nil || checkDelayBound(1.1, 0.95) != nil {
		t.Error("delay bound check misfires")
	}
	if checkReport(&core.Report{Delivered: []int64{0, 0}, MeanDelayMs: []float64{math.NaN(), math.NaN()}}) == nil {
		t.Error("a report with no deliveries passed")
	}
	if checkReport(&core.Report{Delivered: []int64{5}, MeanDelayMs: []float64{2}}) != nil {
		t.Error("a sane report failed")
	}
}

// TestWrongReferenceHashMissesDeadline converges a real mesh against a
// wrong reference: the bring-up must fail at its deadline, not hang.
func TestWrongReferenceHashMissesDeadline(t *testing.T) {
	g := topo.NET1().Graph
	m, err := node.NewMesh(g, meshConfig(7, false))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start := time.Now()
	err = awaitReference(m, "not-the-reference", start.Add(300*time.Millisecond))
	if !errors.Is(err, errDeadline) {
		t.Fatalf("got %v, want a deadline miss", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline miss took %v", d)
	}
	if err := awaitReference(m, protoReference(g, 1), time.Now().Add(5*time.Second)); err != nil {
		t.Fatalf("mesh did not reach the true reference: %v", err)
	}
}

// TestLoopingTableIsCaught publishes forwarding tables with a loop on a
// three-router line and checks the forwarding check fails.
func TestLoopingTableIsCaught(t *testing.T) {
	g := topo.Ring(3, 10*topo.Mb, 1e-3)
	flows := []topo.Flow{{Name: "0-2", Src: 0, Dst: 2, Rate: topo.Mb}}
	f := newFabric(g, flows, false)
	defer f.close()
	// 0 sends toward 2 via 1, and 1 sends it back to 0: a loop.
	f.fwds[0].Publish([]dataplane.Entry{{Dst: 2, Hops: []graph.NodeID{1}, Weights: []float64{1}}})
	f.fwds[1].Publish([]dataplane.Entry{{Dst: 2, Hops: []graph.NodeID{0}, Weights: []float64{1}}})
	for k := 0; k < 10; k++ {
		if err := f.fwds[0].Send(2, uint64(k), livePacketBits); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, loops := f.forwarderDrops()
		if loops == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%g of 10 looping packets caught", loops)
		}
		time.Sleep(time.Millisecond)
	}
	_, loops := f.forwarderDrops()
	if checkForwarding(loops) == nil {
		t.Error("forwarding check passed a looping table")
	}
	if checkForwarding(0) != nil {
		t.Error("forwarding check failed a clean data plane")
	}
	if checkDelivery(10) == nil {
		t.Error("delivery check passed 10 lost packets")
	}
	if checkDelivery(0) != nil {
		t.Error("delivery check failed a data plane that lost nothing")
	}
}

// TestFailedRepetitionIsNotFast checks that a DES repetition whose
// operation failed stays out of the reported medians, and that a run in
// which every repetition failed reports no metric rather than a fast one.
func TestFailedRepetitionIsNotFast(t *testing.T) {
	r := newResult()
	setDESEndToEnd(r, []desIter{
		{ok: true, wall: 3, delayMs: 6, ratio: 1},
		{}, // an OPT solve that failed
		{ok: true, wall: 5, delayMs: 8, ratio: 1.5},
	})
	if r.values["wall_s"] != 4 || r.values["sim_delay_ms"] != 7 || r.values["mp_opt_ratio"] != 1.25 {
		t.Errorf("medians took in a failed repetition: %v", r.values)
	}
	r = newResult()
	setDESEndToEnd(r, []desIter{{}, {}})
	if len(r.values) != 0 {
		t.Errorf("all repetitions failed, yet metrics were set: %v", r.values)
	}
}

func TestQuantile(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9); got != 10 {
		t.Errorf("p90 of 1..11 = %v", got)
	}
}
