package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public function.
// Times are nanoseconds since the tracer's epoch; Parent is the index of the
// enclosing span (-1 at the root); Op identifies the operation (batch index,
// access index, mutation index) the span belongs to.
type span struct {
	Name   uint16
	Parent int32
	Op     int64
	Start  int64
	End    int64
}

// tracer records spans in memory; nothing is written until the run ends.
// Spans come only from bench's own files, around its calls into the program.
type tracer struct {
	epoch time.Time
	names []string
	ids   map[string]uint16
	spans []span
	stack []int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: make(map[string]uint16)}
}

// name interns a span name.
func (t *tracer) name(s string) uint16 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, s)
	t.ids[s] = id
	return id
}

func (t *tracer) parent() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name uint16, op int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.parent(), Op: op, Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a finished leaf span from timestamps the caller already took
// (the fire loops read the clock once per batch either way).
func (t *tracer) add(name uint16, op int64, start, end time.Time) {
	t.spans = append(t.spans, span{
		Name: name, Parent: t.parent(), Op: op,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// durations lists the durations (ns) of every span called name.
func (t *tracer) durations(name string) []float64 {
	id, ok := t.ids[name]
	if !ok {
		return nil
	}
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == id {
			out = append(out, float64(t.spans[i].End-t.spans[i].Start))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children are clipped to the parent and
// overlapping children are counted once (interval union), so self time is
// never negative and never double-subtracts.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make(map[int32][]int32)
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	for p, cs := range kids {
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		lo, hi := spans[p].Start, spans[p].End
		var covered, curS, curE int64
		open := false
		for _, c := range cs {
			s, e := spans[c].Start, spans[c].End
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			if e <= s {
				continue
			}
			switch {
			case !open:
				curS, curE, open = s, e, true
			case s <= curE:
				if e > curE {
					curE = e
				}
			default:
				covered += curE - curS
				curS, curE = s, e
			}
		}
		if open {
			covered += curE - curS
		}
		self[p] -= covered
	}
	return self
}

// selfByName sums self time (ns) over every span called name.
func (t *tracer) selfByName(name string) int64 {
	id, ok := t.ids[name]
	if !ok {
		return 0
	}
	self := selfTimes(t.spans)
	var sum int64
	for i := range t.spans {
		if t.spans[i].Name == id {
			sum += self[i]
		}
	}
	return sum
}

// traceWriteCap bounds the spans written to the trace file. A 20 s fire run
// records over a million batch spans; the statistics use all of them, the
// file keeps the earliest traceWriteCap and says how many it dropped.
const traceWriteCap = 100_000

// write dumps the trace as JSON to dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	n := len(t.spans)
	if n > traceWriteCap {
		n = traceWriteCap
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"spans_recorded\":%d,\"spans_written\":%d,\"spans\":[\n",
		workload, seed, len(t.spans), n)
	for i := 0; i < n; i++ {
		s := t.spans[i]
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"op\":%d}%s\n",
			i, t.names[s.Name], s.Start, s.End, s.Parent, s.Op, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
