package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary.  Spans of one
// replayed request share req; parent is the index of the enclosing
// span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Note qualifies the outcome: "hit" or "miss" for cache-facing
	// spans, "fail" for a call that returned an error.
	Note string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.  With
// off set, begin records nothing and returns -1, which end ignores:
// the path then runs with the same calls but no bookkeeping.
type tracer struct {
	mu    sync.Mutex
	off   bool
	epoch time.Time
	spans []span
	// req and parent locate spans opened by server middleware, which
	// cannot see the replay loop's variables.
	req, parent int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), req: -1, parent: -1} }

func (t *tracer) begin(name string, req, parent int) int {
	if t.off {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// note sets a finished span's outcome.
func (t *tracer) note(i int, note string) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].Note = note
	t.mu.Unlock()
}

// within makes spans opened by middleware children of parent.
func (t *tracer) within(req, parent int) {
	t.mu.Lock()
	t.req, t.parent = req, parent
	t.mu.Unlock()
}

// wrap records a span around every request a server handles: the
// service.handler span for compiles, cluster.peer_lookup for a peer's
// cache read.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "service.handler"
		if strings.HasPrefix(r.URL.Path, "/v1/cache/") {
			name = "cluster.peer_lookup"
		}
		t.mu.Lock()
		req, parent := t.req, t.parent
		t.mu.Unlock()
		i := t.begin(name, req, parent)
		h.ServeHTTP(w, r)
		t.end(i)
	})
}

// children indexes each span's direct children.
func children(spans []span) [][]int {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// selfTime is a span's duration minus the part of its interval that
// its direct children cover; overlapping children count once.
func selfTime(spans []span, kids []int, i int) time.Duration {
	s := spans[i]
	type interval struct{ a, b int64 }
	ivs := make([]interval, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
		if b > a {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var covered int64
	curA, curB := int64(0), int64(-1)
	for _, iv := range ivs {
		if iv.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = iv.a, iv.b
		} else if iv.b > curB {
			curB = iv.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return s.dur() - time.Duration(covered)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations collects the durations of spans named name (and noted
// note, unless note is "*"), in microseconds.
func durations(spans []span, name, note string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (note == "*" || s.Note == note) {
			out = append(out, float64(s.dur())/float64(time.Microsecond))
		}
	}
	return out
}
