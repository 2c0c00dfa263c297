package main

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The shared host the benchmark runs on switches between two speeds about
// 1.4-1.7x apart for allocation-heavy code, within a second and for minutes
// at a time (README.md, Steadiness), which moves every wall-clock metric of
// a run by more than its bound. The yardstick measures the host's speed
// while the run goes on: a fixed allocation-heavy kernel of the
// benchmark's own, run by a child process that lives as long as the run,
// so its time depends on the host and not on the program's heap. After
// every stretch of measured work of about segmentSeconds, the run waits for
// one yardstick pass and converts the stretch to reference seconds:
// measured seconds times yardstickRefSeconds over the pass's seconds, what
// the work would have taken at the reference host speed. The timed metrics
// are sums or medians of reference seconds; the measured seconds are
// printed next to them.

// yardstickEnv, set to 1, makes the benchmark binary (or its test binary)
// serve as the yardstick child: for every line read from standard input it
// runs one pass and prints its seconds, until standard input closes.
const yardstickEnv = "PERFBENCH_YARDSTICK"

// yardstickRefSeconds fixes the scale of reference seconds: one reference
// second is as much host time as 250 passes. A pass took 4.9 to 8.5 ms on
// the 2-vCPU x86-64 VM (Go 1.24.0) the bounds were set on.
const yardstickRefSeconds = 0.004

// yardstickSteps sizes one pass.
const yardstickSteps = 12000

// segmentSeconds is about how much measured work one yardstick pass
// converts; passes add 3 to 5% to a run.
const segmentSeconds = 0.15

// yev is one event of the yardstick's event queue.
type yev struct {
	t    float64
	id   int
	pay  [4]int64
	prev *yev
}

type yqueue []*yev

func (q yqueue) Len() int           { return len(q) }
func (q yqueue) Less(i, j int) bool { return q[i].t < q[j].t }
func (q yqueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *yqueue) Push(x any)        { *q = append(*q, x.(*yev)) }
func (q *yqueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// kernel is the yardstick's state, alive across passes: a pointer heap of
// 2048 pending events and a table of 4096 recent ones, the access pattern
// of the simulator's event queue and tables.
type kernel struct {
	q      yqueue
	recent map[int]*yev
	s      uint64
	sum    int64
}

func newKernel() *kernel {
	k := &kernel{q: make(yqueue, 0, 2048), recent: make(map[int]*yev, 4096), s: 88172645463325252}
	for i := 0; i < 2048; i++ {
		heap.Push(&k.q, &yev{t: float64(k.rnd()%1000000) / 1e6, id: i})
	}
	return k
}

func (k *kernel) rnd() uint64 {
	k.s ^= k.s << 13
	k.s ^= k.s >> 7
	k.s ^= k.s << 17
	return k.s
}

// pass runs steps event steps, each allocating a fresh event, then one
// garbage collection of the kernel's own small heap, and returns its
// seconds.
func (k *kernel) pass(steps int) float64 {
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		e := heap.Pop(&k.q).(*yev)
		ne := &yev{t: e.t + float64(k.rnd()%1000)/1e6, id: int(k.rnd() % 65536)}
		ne.pay[0] = int64(e.id)
		if old, ok := k.recent[ne.id&4095]; ok {
			old.prev, ne.prev = nil, old
			k.sum += old.pay[0]
		}
		k.recent[ne.id&4095] = ne
		heap.Push(&k.q, ne)
	}
	runtime.GC()
	return time.Since(t0).Seconds()
}

// yardstickChild serves passes: three untimed ones to warm the process,
// then one per line of standard input, printing its seconds.
func yardstickChild() {
	runtime.GOMAXPROCS(1)
	k := newKernel()
	for i := 0; i < 3; i++ {
		k.pass(yardstickSteps)
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		fmt.Printf("%.9f %d\n", k.pass(yardstickSteps), k.sum)
	}
}

// hostMeter is a run's yardstick child and the passes it has timed. A nil
// hostMeter runs no child and counts every host at the reference speed
// (traced runs, which report measured seconds).
type hostMeter struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Scanner
	passes []float64
}

// startHostMeter starts the child: this same binary with yardstickEnv set.
func startHostMeter() (*hostMeter, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), yardstickEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &hostMeter{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// pass has the child run one pass and returns its seconds. The run waits
// meanwhile, so the two processes never run at once.
func (m *hostMeter) pass() (float64, error) {
	if m == nil {
		return yardstickRefSeconds, nil
	}
	if _, err := io.WriteString(m.in, "\n"); err != nil {
		return 0, fmt.Errorf("yardstick: %v", err)
	}
	if !m.out.Scan() {
		return 0, fmt.Errorf("yardstick: child ended: %v", m.out.Err())
	}
	fields := strings.Fields(m.out.Text())
	if len(fields) != 2 {
		return 0, fmt.Errorf("yardstick: unexpected output %q", m.out.Text())
	}
	sec, err := strconv.ParseFloat(fields[0], 64)
	if err != nil || !(sec > 0) {
		return 0, fmt.Errorf("yardstick: bad seconds %q", fields[0])
	}
	m.passes = append(m.passes, sec)
	return sec, nil
}

// close ends the child and waits for it.
func (m *hostMeter) close() error {
	if m == nil {
		return nil
	}
	m.in.Close()
	return m.cmd.Wait()
}

// kill stops the child at once and waits for it, for a run that is
// aborting. Errors are dropped: the child may have ended already, and the
// run exits with an error either way.
func (m *hostMeter) kill() {
	if m == nil {
		return
	}
	_ = m.cmd.Process.Kill()
	_ = m.cmd.Wait()
}

// refTimer adds up one kind of measured work in measured and reference
// seconds.
type refTimer struct {
	m        *hostMeter
	raw, ref float64
	seg      float64 // measured seconds not yet converted
	err      error
}

// add counts d measured seconds of work; once the unconverted stretch
// reaches segmentSeconds, it is converted at a fresh pass. Call add after
// the timed work, never inside it.
func (t *refTimer) add(d float64) {
	t.raw += d
	t.seg += d
	if t.seg >= segmentSeconds {
		t.flush()
	}
}

// flush converts the unconverted stretch at a fresh pass.
func (t *refTimer) flush() {
	if t.seg == 0 {
		return
	}
	p, err := t.m.pass()
	if err != nil {
		if t.err == nil {
			t.err = err
		}
		p = yardstickRefSeconds
	}
	t.ref += t.seg * yardstickRefSeconds / p
	t.seg = 0
}
