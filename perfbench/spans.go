package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call at a layer boundary. Spans of one run share Run;
// Parent is the enclosing span's ID (0 at the top).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced runs pay one nil check per call
// site. Hot per-call timings (one MPDA call, one fabric write) go into
// samples instead of spans, keyed by name.
type spanLog struct {
	run     string
	t0      time.Time
	spans   []span
	samples map[string][]float64
}

func newSpanLog(run string) *spanLog {
	return &spanLog{run: run, t0: time.Now(), samples: make(map[string][]float64)}
}

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Seconds()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Run: l.run, Name: name, Start: now, End: now})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = time.Since(l.t0).Seconds()
}

// sample records one hot-path duration (or any per-call value) under name.
func (l *spanLog) sample(name string, v float64) {
	if l == nil {
		return
	}
	l.samples[name] = append(l.samples[name], v)
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
