// Package a replicates the public API shape for the obsop golden test:
// methods dispatching engine operations through the `eng` field must call
// the obs timing hook (RecordOp, FinishSpan or a deferred FinishOp).
package a

import "time"

type Observer struct{}

func (o *Observer) RecordOp(op int, d time.Duration) {}

type engine interface {
	Get(key string) ([]byte, error)
	Put(key string, value []byte) error
	Delete(key string) error
	Len() int
}

type File struct {
	eng engine
	obs *Observer
}

// Get routes through the timing hook — the PR-1 discipline.
func (f *File) Get(key string) ([]byte, error) {
	start := time.Now()
	v, err := f.eng.Get(key)
	f.obs.RecordOp(0, time.Since(start))
	return v, err
}

// Put skips the hook: flagged.
func (f *File) Put(key string, value []byte) error {
	return f.eng.Put(key, value) // want `Put dispatches eng\.Put without the obs timing hook`
}

// Delete times conditionally — an attached observer is optional, and the
// conditional call still counts as routed.
func (f *File) Delete(key string) error {
	if f.obs == nil {
		return f.eng.Delete(key)
	}
	start := time.Now()
	err := f.eng.Delete(key)
	f.obs.RecordOp(2, time.Since(start))
	return err
}

// Len is not an instrumented operation; no hook required.
func (f *File) Len() int { return f.eng.Len() }

// helper calls the engine through a non-eng field shape: not the public
// dispatch, not flagged.
func helper(e engine, key string) ([]byte, error) { return e.Get(key) }

// --- PR 6: span tracing shapes ---

type Span struct{}

func (o *Observer) StartSpan(op int) *Span { return nil }
func (o *Observer) FinishSpan(sp *Span)    {}
func (sp *Span) Mark(stage int)            {}

type spanEngine interface {
	GetSpan(key string, sp *Span) ([]byte, error)
	PutSpan(key string, value []byte, sp *Span) (bool, error)
}

type SpanFile struct {
	eng spanEngine
	obs *Observer
}

// GetTraced starts a span, defers its finish and dispatches the span
// form: FinishSpan is the timing hook, so nothing is flagged.
func (f *SpanFile) GetTraced(key string) ([]byte, error) {
	sp := f.obs.StartSpan(0)
	defer f.obs.FinishSpan(sp)
	return f.eng.GetSpan(key, sp)
}

// PutLeaky starts a span but finishes it inline: an early return (or a
// panic) would leak the span and lose the op's samples.
func (f *SpanFile) PutLeaky(key string, value []byte) error {
	sp := f.obs.StartSpan(1) // want `PutLeaky starts a span without a deferred FinishSpan`
	_, err := f.eng.PutSpan(key, value, sp)
	f.obs.FinishSpan(sp)
	return err
}

// GetSpanUntimed dispatches the span form of an engine op without any
// hook at all: flagged like the plain forms.
func (f *SpanFile) GetSpanUntimed(key string, sp *Span) ([]byte, error) {
	return f.eng.GetSpan(key, sp) // want `GetSpanUntimed dispatches eng\.GetSpan without the obs timing hook`
}

// --- OpScope helper shapes: one engine call per op, span nil when
// tracing is off ---

type OpScope struct{ sp *Span }

func (o *Observer) StartOp(op int) OpScope { return OpScope{} }
func (s OpScope) Span() *Span              { return s.sp }
func (s OpScope) FinishOp()                {}

type scopeEngine interface {
	Get(key string) ([]byte, error)
	GetSpan(key string, sp *Span) ([]byte, error)
	DeleteSpan(key string, sp *Span) error
}

type ScopeFile struct {
	eng scopeEngine
	obs *Observer
}

// Get routes through the helper: the deferred FinishOp is the timing
// hook, so nothing is flagged.
func (f *ScopeFile) Get(key string) ([]byte, error) {
	t := f.obs.StartOp(0)
	defer t.FinishOp()
	return f.eng.GetSpan(key, t.Span())
}

// GetUnrouted dispatches the plain engine op with no hook at all.
func (f *ScopeFile) GetUnrouted(key string) ([]byte, error) {
	return f.eng.Get(key) // want `GetUnrouted dispatches eng\.Get without the obs timing hook`
}

// DeleteInline finishes the scope inline: an early return would lose the
// op's sample, so the finish does not count as routing and the start is
// flagged too.
func (f *ScopeFile) DeleteInline(key string) error {
	t := f.obs.StartOp(2)                  // want `DeleteInline starts an op scope without a deferred FinishOp`
	err := f.eng.DeleteSpan(key, t.Span()) // want `DeleteInline dispatches eng\.DeleteSpan without the obs timing hook`
	t.FinishOp()
	return err
}

// replay dispatches twice without a hook and sanctions only the first
// dispatch: the sanction covers its own line, so the second is flagged.
func (f *ScopeFile) replay(key string) error {
	if _, err := f.eng.GetSpan(key, nil); err != nil { //thvet:ok obsop -- golden: this dispatch alone is sanctioned
		return err
	}
	return f.eng.DeleteSpan(key, nil) // want `replay dispatches eng\.DeleteSpan without the obs timing hook`
}
