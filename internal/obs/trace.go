package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// traceSeq breaks ties when the random source is unavailable and keeps
// minted IDs unique within one process regardless.
var traceSeq atomic.Int64

// MintTraceID returns a fresh 16-hex-char trace identifier.
func MintTraceID() string {
	raw := make([]byte, 8)
	if _, err := rand.Read(raw); err != nil {
		return fmt.Sprintf("t%015x", traceSeq.Add(1))
	}
	return hex.EncodeToString(raw)
}

// maxSpans bounds one trace's span tree: beyond it, Child returns nil
// (nil-safe no-op spans) and the trace counts the drop. The cap keeps a
// long paged scan — thousands of waves — from ballooning its trace.
const maxSpans = 1024

// Trace is one request's span tree. Create it with NewTrace; record
// work under it with StartSpan/Child. All methods are nil-safe: a nil
// *Trace records nothing, so instrumented code paths run untraced at
// the cost of one nil check. Span creation is safe from concurrent
// goroutines (scatter-gather probes fan out); one span's Tag/End calls
// must stay on the goroutine that owns the span, which execution's
// structure guarantees.
type Trace struct {
	id   string
	root *Span

	mu      sync.Mutex
	spans   int
	dropped int
}

// NewTrace builds a trace with the given ID ("" mints one) and a root
// span named after the whole unit of work.
func NewTrace(id, rootName string) *Trace {
	if id == "" {
		id = MintTraceID()
	}
	t := &Trace{id: id}
	t.root = &Span{tr: t, name: rootName, start: time.Now()}
	t.spans = 1
	return t
}

// ID returns the trace identifier ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil on nil).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// StartSpan opens a child of the root span — the top-level phases of a
// request (prepare, exec, gather). Nil-safe.
func (t *Trace) StartSpan(name string) *Span { return t.Root().Child(name) }

// Dropped reports how many spans the cap suppressed.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Finish ends the root span. Nil-safe.
func (t *Trace) Finish() { t.Root().End() }

// Tag is one span annotation.
type Tag struct {
	Key, Val string
}

// Span is one timed operation in a trace.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	tags     []Tag
	children []*Span
}

// Child opens a sub-span. Nil-safe; returns nil when the receiver is nil
// or the trace's span cap is reached, and a nil child swallows its own
// descendants the same way.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil // before time.Now: untraced hot paths pay one branch
	}
	return s.ChildAt(name, time.Now())
}

// ChildAt is Child for work that has already begun: the sub-span starts
// at the given instant. It lets a caller time first and record only the
// operations that turn out to be worth a span.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	if t.spans >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	t.spans++
	c := &Span{tr: t, name: name, start: start}
	s.children = append(s.children, c)
	t.mu.Unlock()
	return c
}

// Tag annotates the span. Nil-safe.
func (s *Span) Tag(key, val string) *Span {
	if s == nil {
		return nil
	}
	s.tags = append(s.tags, Tag{Key: key, Val: val})
	return s
}

// TagInt annotates the span with an integer. Nil-safe: a nil span
// formats nothing.
func (s *Span) TagInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	return s.Tag(key, strconv.FormatInt(v, 10))
}

// End closes the span, fixing its duration. Second and later calls are
// no-ops, as is End on nil.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
}

// Duration returns the span's duration — the time to End for ended
// spans, the running duration otherwise (0 on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Tree renders the span tree as indented text, one span per line with
// its duration and tags — the bqrun -trace / plan.Explain form. Readers
// must call it only after the work recorded under the trace is done.
func (t *Trace) Tree() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s\n", t.id)
	t.mu.Lock()
	dropped := t.dropped
	t.mu.Unlock()
	writeSpanTree(&b, t.root, 1)
	if dropped > 0 {
		fmt.Fprintf(&b, "  … %d spans dropped (cap %d)\n", dropped, maxSpans)
	}
	return b.String()
}

func writeSpanTree(b *strings.Builder, s *Span, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s — %v", s.name, s.Duration().Round(time.Microsecond))
	for _, tg := range s.tags {
		fmt.Fprintf(b, " %s=%s", tg.Key, tg.Val)
	}
	b.WriteByte('\n')
	for _, c := range s.children {
		writeSpanTree(b, c, depth+1)
	}
}

// SpanJSON is the JSON form of one span (and, recursively, its subtree).
type SpanJSON struct {
	Name       string            `json:"name"`
	DurationUS int64             `json:"duration_us"`
	Tags       map[string]string `json:"tags,omitempty"`
	Children   []SpanJSON        `json:"children,omitempty"`
}

// JSON renders the span tree for machine consumers — the /query debug
// payload and the slow-query log. Nil traces render as null.
func (t *Trace) JSON() json.RawMessage {
	if t == nil {
		return json.RawMessage("null")
	}
	doc := struct {
		TraceID string   `json:"trace_id"`
		Root    SpanJSON `json:"root"`
		Dropped int      `json:"dropped_spans,omitempty"`
	}{TraceID: t.id, Root: spanJSON(t.root), Dropped: t.Dropped()}
	b, err := json.Marshal(doc)
	if err != nil {
		return json.RawMessage("null")
	}
	return b
}

func spanJSON(s *Span) SpanJSON {
	out := SpanJSON{Name: s.name, DurationUS: s.Duration().Microseconds()}
	if len(s.tags) > 0 {
		out.Tags = make(map[string]string, len(s.tags))
		for _, tg := range s.tags {
			out.Tags[tg.Key] = tg.Val
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, spanJSON(c))
	}
	return out
}

// FindSpans returns every span in the tree whose name has the given
// prefix, depth-first — test and audit helper.
func (t *Trace) FindSpans(prefix string) []*Span {
	if t == nil {
		return nil
	}
	var out []*Span
	var walk func(*Span)
	walk = func(s *Span) {
		if strings.HasPrefix(s.name, prefix) {
			out = append(out, s)
		}
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// TagValue returns the span's value for a tag key ("" when absent or on
// nil).
func (s *Span) TagValue(key string) string {
	if s == nil {
		return ""
	}
	for _, tg := range s.tags {
		if tg.Key == key {
			return tg.Val
		}
	}
	return ""
}
