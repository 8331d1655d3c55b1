package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"triehash"
	"triehash/internal/obs"
)

// perLayer lists the traced run's metrics, each named after the module
// whose work it measures. A workload reports all of them; a layer it
// bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"triehash.file_lock_wait_ns_per_op", "ns"},
	{"triehash.unattributed_ns_per_op", "ns"},
	{"trie.search_ns_per_op", "ns"},
	{"trie.cells_per_bucket", "ratio"},
	{"trie.depth", "count"},
	{"trie.probe_search_ns", "ns"},
	{"concurrent.probe_search_ns", "ns"},
	{"concurrent.latch_wait_ns_per_op", "ns"},
	{"concurrent.latch_hold_ns_per_op", "ns"},
	{"concurrent.stripe_wait_ns_per_op", "ns"},
	{"concurrent.stripe_hold_ns_per_op", "ns"},
	{"concurrent.struct_wait_ns_per_op", "ns"},
	{"concurrent.struct_hold_ns_per_op", "ns"},
	{"store.cache_hit_ratio", "ratio"},
	{"store.cache_probe_ns_per_op", "ns"},
	{"store.reads_per_op", "count"},
	{"store.read_ns_per_op", "ns"},
	{"store.writes_per_op", "count"},
	{"store.write_ns_per_write", "ns"},
	{"bucket.decode_ns_per_page", "ns"},
	{"bucket.encode_ns_per_page", "ns"},
	{"bucket.page_fill", "ratio"},
	{"core.load_factor", "ratio"},
	{"core.splits_per_kwrite", "count"},
	{"core.split_ns_per_split", "ns"},
	{"core.maintenance_per_kdelete", "count"},
	{"core.merge_ns_per_call", "ns"},
	{"wal.commits_per_fsync", "ratio"},
	{"wal.append_ns_per_op", "ns"},
	{"wal.commit_wait_ns_per_op", "ns"},
	{"wal.fsync_ns_per_fsync", "ns"},
	{"wal.checkpoints_per_kwrite", "count"},
	{"wal.probe_device_fsync_us", "us"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.stage_coverage", "ratio"},
}

// spanCap bounds the spans kept per client (later ones are counted).
const spanCap = 1 << 16

// tracedRounds is how many rounds the traced run alternates between
// untraced and traced.
const tracedRounds = 4

// traced is the per-layer run. Its rounds alternate between untraced and
// traced — an Observer with span tracing attached to the file, and the
// harness recording its own span per call — on like work (slices of the
// time on one file), so the tracing overhead compares like with like.
// Then come the durability check and the layer probes on the final file.
func (b *bench) traced(res *result, spansDir string) error {
	for _, p := range perLayer {
		res.Metrics.set(p.name, 0, p.unit)
	}
	f, err := b.setupFile(nil)
	if err != nil {
		return err
	}
	untraced, traced := b.clients[0], b.clients[1]
	o := triehash.NewObserver(triehash.ObserverConfig{Spans: true, SlowOp: 0})
	start := countersOf(f)
	var durA, durB time.Duration
	var work counters
	for r := 0; r < tracedRounds; r++ {
		if r%2 == 0 {
			durA += b.phase(f, untraced, b.seconds/tracedRounds)
			continue
		}
		f.Observe(o)
		c0 := countersOf(f)
		durB += b.phase(f, traced, b.seconds/tracedRounds)
		work = work.plus(countersOf(f).minus(c0))
		f.Observe(nil)
	}
	callsA := res.tallyClients(untraced)
	callsB := res.tallyClients(traced)
	for _, c := range traced {
		c.endRound() // fold the traced rounds into total
	}
	res.addLatency(traced)
	in := layerInput{
		o: o, st: f.Stats(), work: work, calls: float64(callsB),
		writes: float64(sumOps(traced, opPut)),
		// A checkpoint comes once per MiB of log, too rarely to count
		// over the traced rounds alone: count it over every round.
		checkpoints: float64(countersOf(f).checkpoints - start.checkpoints),
		allWrites:   float64(sumOps(untraced, opPut) + sumOps(traced, opPut)),
		deletes:     float64(sumOps(traced, opDelete)),
		overhead:    100 * (1 - (float64(callsB)/durB.Seconds())/(float64(callsA)/durA.Seconds())),
	}
	in.fill(res.Metrics)
	cov := res.Metrics["obs.stage_coverage"].Value
	b.checks.check(math.Abs(cov-1) <= 1e-9)
	if math.Abs(cov-1) > 1e-9 {
		b.notes = append(b.notes, fmt.Sprintf("stage sums cover %.12f of op totals, want 1", cov))
	}
	res.TailStages = tailStages(o)
	if _, err := b.finish(f, 1, 0); err != nil {
		return err
	}
	probeLog := newSpanLog(b.epoch, 2, 1024)
	if err := b.probe(res.Metrics, probeLog); err != nil {
		return err
	}
	if spansDir == "" {
		return nil
	}
	logs := []*spanLog{traced[0].spans, traced[1].spans, probeLog}
	return writeSpans(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", res.Workload, res.Seed)), logs)
}

// counters are the file's cumulative work counters, read around each
// traced round so that only traced work is attributed.
type counters struct {
	splits, writes, hits, misses   int64
	committed, fsyncs, checkpoints uint64
}

func countersOf(f *triehash.File) counters {
	st := f.Stats()
	w, _ := f.WALStats()
	return counters{
		splits: int64(st.Splits), writes: st.IO.Writes, hits: st.CacheHits, misses: st.CacheMisses,
		committed: w.Committed, fsyncs: w.Fsyncs, checkpoints: w.Checkpoints,
	}
}

func (a counters) minus(b counters) counters {
	return counters{
		a.splits - b.splits, a.writes - b.writes, a.hits - b.hits, a.misses - b.misses,
		a.committed - b.committed, a.fsyncs - b.fsyncs, a.checkpoints - b.checkpoints,
	}
}

func (a counters) plus(b counters) counters {
	return counters{
		a.splits + b.splits, a.writes + b.writes, a.hits + b.hits, a.misses + b.misses,
		a.committed + b.committed, a.fsyncs + b.fsyncs, a.checkpoints + b.checkpoints,
	}
}

func sumOps(cs []*client, op opKind) int64 {
	var n int64
	for _, c := range cs {
		n += c.total[op].n
	}
	return n
}

// layerInput is what the traced rounds leave behind: the observer's
// stage histograms and event counts, the file's work counters over those
// rounds and its shape at the end, and the harness's own counts.
type layerInput struct {
	o                      *triehash.Observer
	st                     triehash.Stats
	work                   counters
	calls, writes, deletes float64
	checkpoints, allWrites float64 // over the untraced rounds too
	overhead               float64
}

// stageNs is a stage's exact total, in nanoseconds.
func (in *layerInput) stageNs(s obs.Stage) float64 { return float64(in.o.Stage(s).Sum()) }

func (in *layerInput) fill(m metrics) {
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over work the workload never did
		}
		m.set(name, v, m[name].Unit)
	}
	perOp := func(s obs.Stage) float64 { return in.stageNs(s) / in.calls }
	st := in.st
	set("triehash.file_lock_wait_ns_per_op", perOp(obs.StageFileLock))
	set("triehash.unattributed_ns_per_op", perOp(obs.StageOther))
	set("trie.search_ns_per_op", perOp(obs.StageTrieSearch))
	set("trie.cells_per_bucket", float64(st.TrieCells)/float64(st.Buckets))
	set("trie.depth", float64(st.Depth))
	set("concurrent.latch_wait_ns_per_op", perOp(obs.StageLatchWait))
	set("concurrent.latch_hold_ns_per_op", perOp(obs.StageLatchHold))
	set("concurrent.stripe_wait_ns_per_op", perOp(obs.StageSubtreeWait))
	set("concurrent.stripe_hold_ns_per_op", perOp(obs.StageSubtreeHold))
	set("concurrent.struct_wait_ns_per_op", perOp(obs.StageStructWait))
	set("concurrent.struct_hold_ns_per_op", perOp(obs.StageStructHold))
	w := in.work
	set("store.cache_hit_ratio", float64(w.hits)/float64(w.hits+w.misses))
	set("store.cache_probe_ns_per_op", perOp(obs.StageCacheProbe))
	set("store.reads_per_op", float64(w.misses)/in.calls)
	set("store.read_ns_per_op", perOp(obs.StageStoreRead))
	set("store.writes_per_op", float64(w.writes)/in.calls)
	set("store.write_ns_per_write", in.stageNs(obs.StageStoreWrite)/float64(w.writes))
	set("core.load_factor", st.Load)
	set("core.splits_per_kwrite", 1000*float64(w.splits)/in.writes)
	set("core.split_ns_per_split", in.stageNs(obs.StageSplit)/float64(w.splits))
	maint := float64(in.o.EventCount(obs.EvMerge) + in.o.EventCount(obs.EvBorrow))
	set("core.maintenance_per_kdelete", 1000*maint/in.deletes)
	set("core.merge_ns_per_call", in.stageNs(obs.StageMerge)/float64(in.o.Stage(obs.StageMerge).Count()))
	set("wal.commits_per_fsync", float64(w.committed)/float64(w.fsyncs))
	set("wal.append_ns_per_op", perOp(obs.StageWALAppend))
	set("wal.commit_wait_ns_per_op", perOp(obs.StageCommitWait))
	set("wal.fsync_ns_per_fsync", in.stageNs(obs.StageWALFsync)/float64(in.o.Stage(obs.StageWALFsync).Count()))
	set("wal.checkpoints_per_kwrite", 1000*in.checkpoints/in.allWrites)
	set("obs.trace_overhead_pct", in.overhead)
	set("obs.stage_coverage", in.coverage())
}

// coverage is Σ stage totals ÷ Σ public-op totals. Spans charge every
// interval of an op to exactly one stage, so it is 1 unless attribution
// is broken. The WAL fsync stage is excluded: the committer records it
// once per shared fsync, outside any op's span.
func (in *layerInput) coverage() float64 {
	var stages, ops float64
	for _, s := range obs.Stages() {
		if s != obs.StageWALFsync {
			stages += in.stageNs(s)
		}
	}
	for _, op := range []obs.Op{obs.OpGet, obs.OpPut, obs.OpDelete, obs.OpRange, obs.OpGetBatch, obs.OpPutBatch} {
		ops += float64(in.o.Op(op).Sum())
	}
	return stages / ops
}

// tailStages folds the slow-op flight recorder (ops above the adaptive
// p99) into each stage's share of those ops' time, per operation.
func tailStages(o *triehash.Observer) map[string]map[string]float64 {
	recs, _ := o.SlowOps()
	out := map[string]map[string]float64{}
	totals := map[string]float64{}
	for _, r := range recs {
		op := r.Op.String()
		if out[op] == nil {
			out[op] = map[string]float64{}
		}
		for s, d := range r.Stages {
			out[op][s] += float64(d)
		}
		totals[op] += float64(r.Total)
	}
	for op, stages := range out {
		for s := range stages {
			stages[s] /= totals[op]
		}
	}
	return out
}

// writeSpans writes the kept spans as JSON lines, after one header line
// per log giving its kept and dropped counts.
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		if err := enc.Encode(map[string]int64{"parent": l.parent, "kept": int64(len(l.kept)), "dropped": l.dropped}); err != nil {
			f.Close()
			return err
		}
	}
	for _, l := range logs {
		for _, s := range l.kept {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
