// Command perfbench is the repository's benchmark. It runs one workload
// for a seed and prints every metric by name and unit, then one JSON
// result line:
//
//	perfbench -workload sf120-control -seed 1 -seconds 30 -trace 0
//
// -trace 0 is a timed run and prints the end-to-end metrics; -trace 1 is a
// separate traced run that records spans around the calls into each layer,
// prints the per-layer metrics, and writes the spans under -out. The
// workloads, metrics, and the layer each metric attributes are described in
// README.md. run.sh builds the command from the checkout's sources and
// runs it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	// tiny shrinks every workload to a few-second smoke size (tests).
	tiny bool
	// spans is non-nil in a traced run.
	spans *spanLog
	// host converts a timed run's work to reference seconds (host.go);
	// nil in a traced run, which reports measured seconds.
	host *hostMeter
}

// workload runs one benchmark workload, filling r.
type workload func(cfg config, r *result) error

var workloads = map[string]workload{
	"sf120-control": runSF120,
	"net1-paper":    runNET1Paper,
	"net1-live":     runNET1Live,
}

// runDeadline bounds a whole run: a stall anywhere fails the run instead
// of hanging it.
const runDeadline = 170 * time.Second

// procs is the GOMAXPROCS every run uses. On a 2-vCPU host shared with
// other tenants, two Ps made the live forwarding metrics swing by up to 20x
// from run to run (goroutine handoffs between Ps stall when the host
// deschedules a vCPU); one P holds them within a few percent.
const procs = 1

func main() {
	if os.Getenv(yardstickEnv) == "1" {
		yardstickChild()
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 for a traced run that prints per-layer metrics")
	outDir := fs.String("out", "", "directory for the traced run's span file (default: none written)")
	tiny := fs.Bool("tiny", false, "smoke-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))
	cfg := config{seed: *seed, seconds: *seconds, tiny: *tiny}
	defs := endToEnd
	if *traceFlag == 1 {
		cfg.spans = newSpanLog(fmt.Sprintf("%s/seed%d", *name, *seed))
		defs = perLayer
	}

	if cfg.spans == nil {
		host, err := startHostMeter()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		cfg.host = host
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v; aborting\n", runDeadline)
		cfg.host.kill()
		os.Exit(1)
	})
	defer watchdog.Stop()

	r, err := measure(w, cfg)
	if cerr := cfg.host.close(); err == nil && cerr != nil {
		err = fmt.Errorf("yardstick: %v", cerr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	r.note("workload=%s seed=%d seconds=%g trace=%d", *name, *seed, *seconds, *traceFlag)
	r.note("env go=%s nproc=%d GOMAXPROCS=%d os=%s/%s", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	r.note("fabrics: control over loopback UDP with ARQ, data over in-memory transport.MemNet; no traffic crosses a real link")
	if cfg.spans != nil {
		r.set("trace.spans", float64(len(cfg.spans.spans)))
		if *outDir != "" {
			path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
			if err := cfg.spans.write(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
				return 1
			}
			r.note("spans written to %s", path)
		}
	}
	if err := r.write(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// measure runs w and fills in every per-layer metric the workload left
// unset with 0 (a layer it does not run).
func measure(w workload, cfg config) (*result, error) {
	r := newResult()
	if err := w(cfg, r); err != nil {
		return nil, err
	}
	if cfg.spans != nil {
		for _, d := range perLayer {
			if _, ok := r.values[d.Name]; !ok {
				r.set(d.Name, 0)
			}
		}
	}
	return r, nil
}
