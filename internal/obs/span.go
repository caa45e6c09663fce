package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"time"
)

type ctxKey int

const (
	reqIDKey ctxKey = iota
	loggerKey
	spanKey
)

// NewRequestID returns a fresh 16-hex-character request ID.
func NewRequestID() string { return randomHex(8) }

func randomHex(n int) string {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		// crypto/rand never fails on supported platforms; degrade loudly
		// rather than crash a request path.
		return "rand-err"
	}
	return hex.EncodeToString(buf)
}

// WithRequestID attaches a request ID to the context; every Span started
// under it carries the ID on its log events.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey, id)
}

// RequestID returns the request ID attached to ctx, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey).(string)
	return id
}

// WithLogger attaches the logger Spans under this context will emit to.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey, l)
}

// Logger returns the logger attached to ctx, or slog.Default().
func Logger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok && l != nil {
		return l
	}
	return slog.Default()
}

// Span is one timed stage of a request. Spans nest: starting a span under a
// context that already carries one records the parent's ID, so the log
// stream reconstructs the stage tree of each request.
type Span struct {
	name   string
	id     string
	parent string
	reqID  string
	logger *slog.Logger
	trace  *TraceStore
	start  time.Time
}

// StartSpan begins a span and returns a derived context carrying it (so
// child spans nest under it). The span logs nothing until End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return StartSpanAt(ctx, name, time.Now())
}

// StartSpanAt is StartSpan for a stage that began at start, before the span
// could be opened: a request body read ahead of the pipeline that decodes
// it, say.
func StartSpanAt(ctx context.Context, name string, start time.Time) (context.Context, *Span) {
	parent := ""
	if p, ok := ctx.Value(spanKey).(*Span); ok && p != nil {
		parent = p.id
	}
	s := &Span{
		name:   name,
		id:     randomHex(4),
		parent: parent,
		reqID:  RequestID(ctx),
		logger: Logger(ctx),
		trace:  traceStoreFrom(ctx),
		start:  start,
	}
	return context.WithValue(ctx, spanKey, s), s
}

// Name returns the span's stage name.
func (s *Span) Name() string { return s.name }

// ID returns the span's ID.
func (s *Span) ID() string { return s.id }

// End emits the span's structured log event — name, req_id, span_id,
// parent_id, duration, plus any extra attrs — and returns the duration.
// When the span's context carried a TraceStore (WithTraceStore) the span is
// also recorded into the request's retrievable timeline.
func (s *Span) End(attrs ...any) time.Duration {
	d := time.Since(s.start)
	if s.trace != nil {
		s.trace.Add(s.reqID, SpanRecord{
			Name:       s.name,
			SpanID:     s.id,
			ParentID:   s.parent,
			Start:      s.start,
			DurationMS: float64(d.Microseconds()) / 1000,
			Attrs:      renderAttrs(attrs),
		})
	}
	args := make([]any, 0, 10+len(attrs))
	args = append(args,
		"span", s.name,
		"req_id", s.reqID,
		"span_id", s.id,
		"parent_id", s.parent,
		"duration", d.Round(time.Microsecond),
	)
	args = append(args, attrs...)
	s.logger.Info("span", args...)
	return d
}
