package obs

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"
)

// TraceStore retains recent span timelines keyed by request (or job) ID so
// GET /jobs/{id}/trace can replay a request's stage breakdown after the
// fact. Spans flow in two ways: any Span ended under a context carrying the
// store (WithTraceStore) records itself automatically, and lifecycle code
// that knows a stage's duration without running inside it (queue wait,
// enqueue) appends directly with Add.
//
// The store is a bounded LRU over trace IDs: when a new ID would exceed the
// capacity, the least-recently-touched timeline is dropped whole. Within
// one timeline the span count is also capped, so no timeline can grow
// without bound. All methods are safe for concurrent use.
type TraceStore struct {
	capacity int
	maxSpans int

	mu     sync.Mutex
	order  *list.List // of string (trace ID), front = most recent
	traces map[string]*traceEntry
}

type traceEntry struct {
	elem  *list.Element
	spans []SpanRecord
	drops int
}

// SpanRecord is one recorded stage of a trace.
type SpanRecord struct {
	// Name is the stage ("decode", "queue-wait", "run", ...).
	Name string `json:"name"`
	// SpanID / ParentID reconstruct the stage tree ("" = synthetic or root).
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	// Start and DurationMS place the stage on the timeline.
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	// Attrs carries the span's extra attributes rendered as strings.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Trace is one retrievable timeline.
type Trace struct {
	ID string `json:"id"`
	// Spans are in recording order (completion order for real spans).
	Spans []SpanRecord `json:"spans"`
	// Dropped counts spans discarded by the per-trace cap.
	Dropped int `json:"dropped,omitempty"`
}

// DefaultTraceCapacity bounds retained trace IDs when callers pass ≤ 0.
const DefaultTraceCapacity = 1024

// maxSpansPerTrace caps one timeline's length.
const maxSpansPerTrace = 256

// NewTraceStore returns a store retaining up to capacity trace IDs
// (DefaultTraceCapacity when capacity ≤ 0).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceStore{
		capacity: capacity,
		maxSpans: maxSpansPerTrace,
		order:    list.New(),
		traces:   make(map[string]*traceEntry),
	}
}

// Add appends one span record to the timeline of id (creating it, evicting
// the oldest timeline over capacity). Empty IDs are ignored.
func (s *TraceStore) Add(id string, rec SpanRecord) {
	if id == "" || s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.traces[id]
	if e == nil {
		for len(s.traces) >= s.capacity {
			oldest := s.order.Back()
			if oldest == nil {
				break
			}
			delete(s.traces, oldest.Value.(string))
			s.order.Remove(oldest)
		}
		e = &traceEntry{elem: s.order.PushFront(id)}
		s.traces[id] = e
	} else {
		s.order.MoveToFront(e.elem)
	}
	if len(e.spans) >= s.maxSpans {
		e.drops++
		return
	}
	e.spans = append(e.spans, rec)
}

// Get returns the timeline of id, or ok=false when it was never recorded
// (or already evicted).
func (s *TraceStore) Get(id string) (Trace, bool) {
	if s == nil {
		return Trace{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.traces[id]
	if e == nil {
		return Trace{}, false
	}
	s.order.MoveToFront(e.elem)
	return Trace{
		ID:      id,
		Spans:   append([]SpanRecord(nil), e.spans...),
		Dropped: e.drops,
	}, true
}

// Len returns the number of retained timelines.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.traces)
}

type traceStoreKey struct{}

// WithTraceStore attaches the store to ctx: every Span ended under the
// context records itself into the timeline of the context's request ID.
func WithTraceStore(ctx context.Context, s *TraceStore) context.Context {
	return context.WithValue(ctx, traceStoreKey{}, s)
}

// traceStoreFrom returns the store attached to ctx, or nil.
func traceStoreFrom(ctx context.Context) *TraceStore {
	s, _ := ctx.Value(traceStoreKey{}).(*TraceStore)
	return s
}

// renderAttrs turns a Span.End attribute list (alternating key/value) into
// the string map SpanRecord carries; odd tails are kept under "extra".
func renderAttrs(attrs []any) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, (len(attrs)+1)/2)
	for i := 0; i+1 < len(attrs); i += 2 {
		m[fmt.Sprint(attrs[i])] = fmt.Sprint(attrs[i+1])
	}
	if len(attrs)%2 != 0 {
		m["extra"] = fmt.Sprint(attrs[len(attrs)-1])
	}
	return m
}
