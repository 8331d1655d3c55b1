package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"triehash"
)

// bench is one benchmark run: a workload at a seed, in a work directory.
type bench struct {
	s       scenario
	seconds time.Duration
	work    string // scratch directory of this run
	dir     string // the workload's file
	epoch   time.Time
	heap0   uint64 // HeapInuse once the harness's own inputs and buffers exist
	checks  tally
	notes   []string
	// clients holds two sets of the two clients, allocated before heap0
	// is read: the measured set, and the traced phase's set.
	clients [2][]*client
}

func newClients() []*client { return []*client{{id: 0}, {id: 1}} }

// setupFile runs the workload's set-up, keeping the last file open, and
// appends each set-up's wall time to samples. With samples it repeats the
// set-up at least setupReps times and for at least setupFor, so a cheap
// set-up is timed often enough for a steady median.
func (b *bench) setupFile(samples *[]float64) (*triehash.File, error) {
	var f *triehash.File
	start := time.Now()
	for r := 0; r == 0 || (samples != nil && (r < setupReps || time.Since(start) < setupFor)); r++ {
		if f != nil {
			if err := f.Close(); err != nil {
				return nil, fmt.Errorf("close between set-ups: %w", err)
			}
		}
		if err := os.RemoveAll(b.dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if f, err = b.s.setup(b.dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if samples != nil {
			*samples = append(*samples, time.Since(t0).Seconds())
		}
	}
	return f, nil
}

// phase runs one round of both clients against f for budget and
// returns its wall time.
func (b *bench) phase(f *triehash.File, cs []*client, budget time.Duration) time.Duration {
	deadline := time.Now().Add(budget)
	for _, c := range cs {
		c.deadline = deadline
	}
	t0 := time.Now()
	runClients(cs, func(c *client) { b.s.run(f, c) })
	return time.Since(t0)
}

// phaseEnd is what finish measures on the file after its timed phase.
type phaseEnd struct {
	heapPerKey   float64
	bytesPerUser float64
	recoverS     []float64
}

// finish ends the timed phase: the workload settles the file, then heap
// in use per live key, then a kill-state copy of the directory (every
// call has returned; nothing is synced or closed after the settle, so the
// copy holds exactly what a killed process leaves in the OS cache), then
// Close and the file's size per user byte, then recoveries of the copy —
// at least minReps of them and for at least minTime — the last one
// verified record by record and by CheckInvariants.
func (b *bench) finish(f *triehash.File, minReps int, minTime time.Duration) (phaseEnd, error) {
	var r phaseEnd
	if err := b.s.settle(f, &b.checks); err != nil {
		f.Close()
		return r, err
	}
	keys, user := b.s.live()
	runtime.GC()
	r.heapPerKey = (float64(heapInuse()) - float64(b.heap0)) / float64(keys)
	kill := filepath.Join(b.work, "kill")
	if err := copyDir(b.dir, kill, false); err != nil {
		f.Close()
		return r, err
	}
	if err := f.Close(); err != nil {
		return r, fmt.Errorf("close: %w", err)
	}
	size, err := fileBytes(b.dir)
	if err != nil {
		return r, err
	}
	r.bytesPerUser = float64(size) / float64(user)
	rec := filepath.Join(b.work, "recover")
	start := time.Now()
	for i := 0; ; i++ {
		last := i+1 >= minReps && time.Since(start) >= minTime
		if err := copyDir(kill, rec, true); err != nil {
			return r, err
		}
		t0 := time.Now()
		g, err := triehash.OpenAtWith(rec, b.s.options())
		if err != nil {
			return r, fmt.Errorf("recover: %w", err)
		}
		r.recoverS = append(r.recoverS, time.Since(t0).Seconds())
		if last {
			b.s.verify(g, &b.checks)
			if err := g.CheckInvariants(); err != nil {
				b.checks.check(false)
				b.notes = append(b.notes, "recovered copy fails CheckInvariants: "+err.Error())
			} else {
				b.checks.check(true)
			}
		}
		if err := g.Close(); err != nil {
			return r, fmt.Errorf("close recovered copy: %w", err)
		}
		if last {
			return r, nil
		}
	}
}

// measure is the untraced run: the end-to-end metrics. The timed phase
// is cut into rounds of like work — consecutive slices of the time on
// one file — and throughput and latency are medians over rounds, so one
// disturbed stretch does not move them. Rounds are long enough that the
// round's read p99 has ten samples beyond it. Latency is the reads'
// (dict-read's Gets, window-scan's Ranges): window-scan's writer waits on
// a device fsync per call, so its latency follows the host's disk more
// than the program; it is kept, per client and call, in the full record.
func (b *bench) measure(res *result) error {
	cs := b.clients[0]
	var setups, opsPerS, p50s, p99s []float64
	f, err := b.setupFile(&setups)
	if err != nil {
		return err
	}
	for round := 0; round < measureRounds; round++ {
		before := callsOf(cs)
		d := b.phase(f, cs, b.seconds/measureRounds)
		opsPerS = append(opsPerS, float64(callsOf(cs)-before)/d.Seconds())
		p50, p99 := readRound(cs)
		p50s = append(p50s, p50)
		p99s = append(p99s, p99)
		for _, c := range cs {
			c.endRound()
		}
	}
	end, err := b.finish(f, recoveryReps, recoverFor)
	if err != nil {
		return err
	}
	res.tallyClients(cs)
	res.addLatency(cs)
	m := res.Metrics
	m.set("setup_s", median(setups), "s")
	m.set("ops_per_s", median(opsPerS), "1/s")
	m.set("read_p50_us", median(p50s), "us")
	m.set("read_p99_us", median(p99s), "us")
	m.set("bytes_per_user_byte", end.bytesPerUser, "ratio")
	m.set("heap_bytes_per_key", end.heapPerKey, "B")
	m.set("recover_s", median(end.recoverS), "s")
	return nil
}

const (
	measureRounds = 10              // rounds the timed phase is cut into
	setupReps     = 3               // set-ups per run, at least; setup_s is their median
	setupFor      = time.Second     // time spent on set-ups, at least
	recoveryReps  = 6               // recoveries of the final file, at least; recover_s is their median
	recoverFor    = 4 * time.Second // time spent on recoveries, copies included, at least
)

func heapInuse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// copyDir replaces dst with a copy of the regular files in src, flushed
// to the device when durable is set: a timed open that syncs the copy
// then pays only for what it changed, as after a real crash, where every
// page the last checkpoint wrote is already on the device.
func copyDir(src, dst string, durable bool) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()), durable); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string, durable bool) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", src, err)
	}
	if durable {
		if err := out.Sync(); err != nil {
			out.Close()
			return err
		}
	}
	return out.Close()
}

// fileBytes is the on-disk size of a closed file: bucket slots, trie
// metadata and log.
func fileBytes(dir string) (int64, error) {
	var n int64
	for _, name := range []string{"buckets.th", "meta.th", "wal.th"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}
