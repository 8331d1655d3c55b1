package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"triehash"
)

const (
	records200k = 200_000
	bulkFill    = 0.7
	rangeLimit  = 100
)

// baseOptions is the production stack every workload runs on: the
// concurrent engine (the durable deployment engine: only it shares
// fsyncs), the write-ahead log with its default 1 MiB checkpoints, the
// default v2 format, b = 20 and 4 KiB slots. Workloads add CacheFrames.
func baseOptions(frames int) triehash.Options {
	return triehash.Options{
		BucketCapacity: 20, SlotBytes: 4096, Concurrent: true, WAL: true,
		CacheFrames: frames,
	}
}

// scenario is one workload: its seeded inputs, how its file is set up,
// what each of its two clients does, and what a recovered copy must hold.
type scenario interface {
	// options are the Options the file is opened (and reopened) with.
	options() triehash.Options
	// setup builds, in the empty path dir, the file the timed phase
	// starts from; it is the work setup_s times.
	setup(dir string) (*triehash.File, error)
	// run is client c's closed loop against f for one round.
	run(f *triehash.File, c *client)
	// settle brings f, after the timed phase, to the state its
	// kill-state copy is taken in, booking each call's outcome in t.
	settle(f *triehash.File, t *tally) error
	// verify checks a copy recovered after the phase: every acknowledged
	// write present with its value, every acknowledged delete absent.
	verify(f *triehash.File, t *tally)
	// live returns the live record count and Σ(len key + len value).
	live() (keys int, userBytes int64)
	// probeKeys are the keys the search probes look up.
	probeKeys() []string
	// writes reports whether the workload writes.
	writes() bool
}

// tally counts checked items and failures outside the timed loops.
type tally struct{ attempted, failed int64 }

func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func newScenario(name string, seed int64) (scenario, error) {
	switch name {
	case "dict-read":
		return newDictRead(seed), nil
	case "window-scan":
		return newWindowScan(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want dict-read or window-scan)", name)
}

// bulkLoad builds a file of keys (ascending) at fill 0.7, closes it and
// reopens it with a pool of frames buckets, returning the bucket count.
func bulkLoad(dir string, keys []string, vals [][]byte, framesFor func(buckets int) int) (*triehash.File, int, error) {
	i := 0
	f, err := triehash.BulkLoad(dir, baseOptions(0), bulkFill, func() (string, []byte, bool) {
		if i == len(keys) {
			return "", nil, false
		}
		i++
		return keys[i-1], vals[i-1], true
	})
	if err != nil {
		return nil, 0, fmt.Errorf("bulk load: %w", err)
	}
	buckets := f.Stats().Buckets
	if err := f.Close(); err != nil {
		return nil, 0, fmt.Errorf("close after bulk load: %w", err)
	}
	f, err = triehash.OpenAtWith(dir, baseOptions(framesFor(buckets)))
	if err != nil {
		return nil, 0, fmt.Errorf("reopen: %w", err)
	}
	return f, buckets, nil
}

// dictRead: Zipf-popular Gets over a bulk-loaded dictionary whose every
// bucket is resident in the pool.
type dictRead struct {
	keys   []string
	vals   [][]byte
	draws  [2][]int32
	frames int
}

func newDictRead(seed int64) *dictRead {
	s := &dictRead{keys: dictKeys(seed, records200k)}
	s.vals = records(seed, s.keys)
	for i := range s.draws {
		s.draws[i] = zipfDraws(seed+int64(i)+1, len(s.keys), 1<<20, 1.1)
	}
	return s
}

func (s *dictRead) options() triehash.Options { return baseOptions(s.frames) }
func (s *dictRead) writes() bool              { return false }
func (s *dictRead) probeKeys() []string       { return s.keys }

func (s *dictRead) setup(dir string) (*triehash.File, error) {
	f, _, err := bulkLoad(dir, s.keys, s.vals, func(buckets int) int {
		s.frames = buckets + buckets/4 + 64 // every bucket, with slack for uneven shards
		return s.frames
	})
	if err != nil {
		return nil, err
	}
	// Warm the pool: one ascending scan reads every bucket once.
	if err := f.Range("", "", func(string, []byte) bool { return true }); err != nil {
		f.Close()
		return nil, fmt.Errorf("warm-up scan: %w", err)
	}
	return f, nil
}

func (s *dictRead) run(f *triehash.File, c *client) {
	draws := s.draws[c.id%2]
	for j := 0; ; j++ {
		k := draws[j%len(draws)]
		t0 := time.Now()
		v, err := f.Get(s.keys[k])
		t1 := time.Now()
		c.record(opGet, t0, t1, err == nil && bytes.Equal(v, s.vals[k]))
		if c.expired(t1) {
			return
		}
	}
}

// settle leaves f as the timed phase left it: a read-only run logs
// nothing, so recovery has nothing to replay.
func (s *dictRead) settle(*triehash.File, *tally) error { return nil }

func (s *dictRead) verify(f *triehash.File, t *tally) {
	for i, k := range s.keys {
		v, err := f.Get(k)
		t.check(err == nil && bytes.Equal(v, s.vals[i]))
	}
}

func (s *dictRead) live() (int, int64) { return len(s.keys), userBytes(s.keys, s.vals) }

func userBytes(keys []string, vals [][]byte) int64 {
	var n int64
	for i, k := range keys {
		n += int64(len(k) + len(vals[i]))
	}
	return n
}

// windowScan: a retention window over time-ordered keys. The writer
// (client 0) appends the newest key and deletes the oldest, alternately;
// the scanner (client 1) runs Range from a uniformly random live key,
// stopping after 100 records. The pool holds about 2% of the buckets.
type windowScan struct {
	seed   int64
	keys   []string // keys[lo:hi] are live
	vals   [][]byte
	lo, hi atomic.Int64
	frames int
	rng    *rand.Rand
}

// windowSlides bounds how far the window can move in one run; the writer
// stops if it ever gets there.
const windowSlides = 250_000

func newWindowScan(seed int64) *windowScan {
	s := &windowScan{seed: seed, keys: windowKeys(seed, records200k+windowSlides)}
	s.vals = records(seed, s.keys)
	return s
}

func (s *windowScan) options() triehash.Options { return baseOptions(s.frames) }
func (s *windowScan) writes() bool              { return true }

func (s *windowScan) probeKeys() []string {
	return s.keys[s.lo.Load():s.hi.Load()]
}

func (s *windowScan) setup(dir string) (*triehash.File, error) {
	f, _, err := bulkLoad(dir, s.keys[:records200k], s.vals[:records200k], func(buckets int) int {
		s.frames = buckets / 50
		return s.frames
	})
	if err != nil {
		return nil, err
	}
	s.lo.Store(0)
	s.hi.Store(records200k)
	// Every set-up draws the same start keys, however many ran before it.
	s.rng = rand.New(rand.NewSource(s.seed ^ 0x5ca1ab1e))
	// Warm the pool with the scanner's own access pattern.
	st := &scanState{}
	for i := 0; i < 4*s.frames; i++ {
		if _, err := s.scan(f, st); err != nil {
			f.Close()
			return nil, fmt.Errorf("warm-up range: %w", err)
		}
	}
	return f, nil
}

// scanState checks one Range: keys ascending from the start key, at most
// rangeLimit records, each with its seeded value. Its visit method is
// bound once per client, so a scan allocates nothing in the harness.
type scanState struct {
	seed    int64
	prev    string
	n       int
	bad     bool
	scratch []byte
	visit   func(key string, v []byte) bool
}

func (st *scanState) reset(seed int64, from string) {
	st.seed, st.prev, st.n, st.bad = seed, from, 0, false
	if st.visit == nil {
		st.visit = st.step
	}
}

func (st *scanState) step(key string, v []byte) bool {
	if key < st.prev || (st.n > 0 && key == st.prev) {
		st.bad = true
	}
	st.prev = key
	st.n++
	st.scratch = valueFor(st.scratch, st.seed, key)
	if !bytes.Equal(v, st.scratch) {
		st.bad = true
	}
	return st.n < rangeLimit
}

// scan runs one Range from a uniformly random live key and reports
// whether it checked out.
func (s *windowScan) scan(f *triehash.File, st *scanState) (bool, error) {
	lo, hi := s.lo.Load(), s.hi.Load()
	from := s.keys[lo+s.rng.Int63n(hi-lo)]
	st.reset(s.seed, from)
	err := f.Range(from, "", st.visit)
	return err == nil && !st.bad && st.n > 0 && st.n <= rangeLimit, err
}

func (s *windowScan) run(f *triehash.File, c *client) {
	if c.id == 1 {
		st := &scanState{}
		for {
			t0 := time.Now()
			ok, _ := s.scan(f, st)
			t1 := time.Now()
			c.record(opRange, t0, t1, ok)
			if c.expired(t1) {
				return
			}
		}
	}
	for {
		hi := s.hi.Load()
		if hi == int64(len(s.keys)) {
			return
		}
		t0 := time.Now()
		err := f.Put(s.keys[hi], s.vals[hi])
		t1 := time.Now()
		c.record(opPut, t0, t1, err == nil)
		s.hi.Store(hi + 1)
		lo := s.lo.Load()
		t0 = time.Now()
		err = f.Delete(s.keys[lo])
		t1 = time.Now()
		c.record(opDelete, t0, t1, err == nil)
		s.lo.Store(lo + 1)
		if c.expired(t1) {
			return
		}
	}
}

// killTail is how many writer steps follow the checkpoint that ends the
// timed phase, so every run's kill-state copy leaves the same log tail
// (well under the 1 MiB checkpoint) for recovery to replay, wherever in
// the checkpoint cycle the timed phase stopped.
const killTail = 4096

// settle checkpoints f, then slides the window killTail more steps.
func (s *windowScan) settle(f *triehash.File, t *tally) error {
	if err := f.Sync(); err != nil {
		return fmt.Errorf("checkpoint after the timed phase: %w", err)
	}
	for i := 0; i < killTail; i++ {
		hi, lo := s.hi.Load(), s.lo.Load()
		if hi == int64(len(s.keys)) {
			return fmt.Errorf("window ran out of keys")
		}
		t.check(f.Put(s.keys[hi], s.vals[hi]) == nil)
		s.hi.Store(hi + 1)
		t.check(f.Delete(s.keys[lo]) == nil)
		s.lo.Store(lo + 1)
	}
	return nil
}

func (s *windowScan) verify(f *triehash.File, t *tally) {
	lo, hi := s.lo.Load(), s.hi.Load()
	for i := int64(0); i < lo; i++ {
		_, err := f.Get(s.keys[i])
		t.check(errors.Is(err, triehash.ErrNotFound))
	}
	for i := lo; i < hi; i++ {
		v, err := f.Get(s.keys[i])
		t.check(err == nil && bytes.Equal(v, s.vals[i]))
	}
}

func (s *windowScan) live() (int, int64) {
	lo, hi := s.lo.Load(), s.hi.Load()
	return int(hi - lo), userBytes(s.keys[lo:hi], s.vals[lo:hi])
}
