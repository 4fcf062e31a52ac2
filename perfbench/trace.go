package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0: root
	Op     uint64 `json:"op"`     // operation the span belongs to; 0: none
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Each client goroutine
// records into its own lane, so recording takes no lock.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	lanes []*lane
}

type lane struct {
	tr    *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane returns a recorder for one goroutine; nil when tracing is off.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{tr: t, spans: make([]span, 0, 4096)}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// id allocates a span id, so children can name a parent recorded after
// them (0 when tracing is off).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add stores a finished span under an id from tracer.id.
func (l *lane) add(id uint64, name string, op, parent uint64, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.tr.t0).Nanoseconds(), End: end.Sub(l.tr.t0).Nanoseconds()})
}

// all returns every span; call only after the recording goroutines ended.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.all() {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// writeSpans writes every traced repetition's spans as JSON lines.
func writeSpans(path string, tracers map[int]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	reps := make([]int, 0, len(tracers))
	for rep := range tracers {
		reps = append(reps, rep)
	}
	sort.Ints(reps)
	for _, rep := range reps {
		for _, s := range tracers[rep].all() {
			if err := enc.Encode(struct {
				Rep int `json:"rep"`
				span
			}{rep, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribRow is one line of the attribution table: a part of an end-to-end
// figure, in the unit of that figure.
type attribRow struct {
	part  string
	value float64
	unit  string
}

// printAttribution prints the traced repetitions' attribution tables
// (median over repetitions per row) and the tracing overhead, judged on the
// workload's overhead figure.
func printAttribution(w workloadDef, traced []*repResult, off, on float64) {
	fmt.Printf("attribution (%s, median over %d traced repetitions):\n", w.name, len(traced))
	if len(traced) > 0 {
		for i, row := range traced[0].attrib {
			var vals []float64
			for _, r := range traced {
				if i < len(r.attrib) {
					vals = append(vals, r.attrib[i].value)
				}
			}
			fmt.Printf("  %-44s %12.3f %s\n", row.part, median(vals), row.unit)
		}
	}
	fmt.Printf("  tracing overhead on %s: untraced %.3f, traced %.3f (%+.2f%%)\n",
		w.overhead, off, on, 100*ratio(on-off, off))
}
