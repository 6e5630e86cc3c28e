package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (spans inside the program are a later change).
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0: the root
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the pass ends.  A nil tracer is
// the untraced pass: every method is a no-op, so the measured loops
// carry no clock reads beyond their own start and end.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes the span and attaches the count deltas seen across it.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Counts = counts
}

// named returns the durations of every span with the given name.
func (t *tracer) named(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// spanTotal is one row of a trace summary.
type spanTotal struct {
	Name    string           `json:"name"`
	Count   int              `json:"count"`
	TotalNS int64            `json:"total_ns"`
	MaxNS   int64            `json:"max_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// traceSummary is what the repository keeps of a traced run: span
// totals by name, the root's self time, and the estimated shares.
type traceSummary struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	RootNS   int64       `json:"root_ns"`
	SelfNS   int64       `json:"root_self_ns"`
	Spans    []spanTotal `json:"spans"`
	// Shares maps a layer to its share of the measured region.  An
	// "est." entry is probe ns x count / region; the others are spans.
	Shares map[string]float64 `json:"shares,omitempty"`
}

// summarize totals the spans by name.  The root's self time is its
// duration minus what its direct children cover.
func (t *tracer) summarize(workload string, seed int64) traceSummary {
	sum := traceSummary{Workload: workload, Seed: seed}
	byName := map[string]*spanTotal{}
	var order []string
	for _, s := range t.spans {
		if s.Parent == 0 {
			sum.RootNS += int64(s.dur())
			sum.SelfNS += int64(s.dur())
		} else if t.spans[s.Parent-1].Parent == 0 {
			sum.SelfNS -= int64(s.dur())
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.Count++
		st.TotalNS += int64(s.dur())
		st.MaxNS = max(st.MaxNS, int64(s.dur()))
		for k, v := range s.Counts {
			if st.Counts == nil {
				st.Counts = map[string]int64{}
			}
			st.Counts[k] += v
		}
	}
	for _, n := range order {
		sum.Spans = append(sum.Spans, *byName[n])
	}
	return sum
}

// childCover is the share of the root span its direct children cover.
func (s traceSummary) childCover() float64 {
	if s.RootNS == 0 {
		return 0
	}
	return 1 - float64(s.SelfNS)/float64(s.RootNS)
}

// write stores the raw spans as JSON lines and the summary beside them.
func (t *tracer) write(dir string, sum traceSummary) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, sum.Workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, sum.Workload+".trace.summary.json"), sum)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
