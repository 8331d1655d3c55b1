package main

import (
	"sync"
	"time"
)

// opKind names the public calls the clients time.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opRange
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "delete", "range"}

// client is one closed-loop caller: it issues its next call only after
// the previous one returned. Everything it records into is allocated
// before the timed loop starts.
type client struct {
	id       int
	deadline time.Time        // the end of the current round
	lat      [numOpKinds]hist // the current round
	total    [numOpKinds]hist // every folded round
	calls    int64
	failed   int64
	spans    *spanLog // non-nil only in the traced phase
}

// endRound folds the client's current round into total and clears it.
func (c *client) endRound() {
	for op := range c.lat {
		c.total[op].merge(&c.lat[op])
		c.lat[op] = hist{}
	}
}

// readRound returns the p50 and p99 (µs) of the reads — Get and Range —
// that the clients completed in the current round.
func readRound(cs []*client) (p50, p99 float64) {
	var h hist
	for _, c := range cs {
		h.merge(&c.lat[opGet])
		h.merge(&c.lat[opRange])
	}
	return h.quantile(0.50), h.quantile(0.99)
}

// record books one finished call. ok is false for an error or a wrong
// answer.
func (c *client) record(op opKind, t0, t1 time.Time, ok bool) {
	c.lat[op].add(t1.Sub(t0))
	c.calls++
	if !ok {
		c.failed++
	}
	c.spans.add(c.id, op, t0, t1)
}

func callsOf(cs []*client) int64 {
	var n int64
	for _, c := range cs {
		n += c.calls
	}
	return n
}

// expired reports whether the client should stop after a call that
// ended at t.
func (c *client) expired(t time.Time) bool {
	return t.After(c.deadline)
}

// runClients runs fn once per client on its own goroutine and waits for
// all of them.
func runClients(cs []*client, fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// spanLog is the harness's own trace: one span per public call and per
// probe call, kept in memory (pre-sized; later spans past the capacity
// are counted, not kept) and written out when the run ends.
type spanLog struct {
	epoch   time.Time
	parent  int64
	kept    []span
	dropped int64
}

type span struct {
	Client int    `json:"client"`
	Seq    int64  `json:"seq"`
	Parent int64  `json:"parent"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpanLog(epoch time.Time, parent int64, capacity int) *spanLog {
	return &spanLog{epoch: epoch, parent: parent, kept: make([]span, 0, capacity)}
}

func (l *spanLog) add(client int, op opKind, t0, t1 time.Time) {
	l.addNamed(client, opNames[op], t0, t1)
}

func (l *spanLog) addNamed(client int, name string, t0, t1 time.Time) {
	if l == nil {
		return
	}
	if len(l.kept) == cap(l.kept) {
		l.dropped++
		return
	}
	l.kept = append(l.kept, span{
		Client: client, Seq: int64(len(l.kept)) + l.dropped, Parent: l.parent, Op: name,
		Start: int64(t0.Sub(l.epoch)), End: int64(t1.Sub(l.epoch)),
	})
}
