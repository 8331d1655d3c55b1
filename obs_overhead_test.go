package triehash

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"triehash/internal/core"
	"triehash/internal/obs"
	"triehash/internal/store"
	"triehash/internal/workload"
)

// TestObsOverhead is the `make obs-bench` gate: with instrumentation
// compiled in but no observer attached, Get must cost at most 5% more
// than the uninstrumented configuration, and must not allocate anything
// the uninstrumented path doesn't. The comparison isolates exactly what
// the observability layer adds — the hook's atomic load and branch on the
// operation path plus the Instrumented store wrapper — by building one
// file with neither and one with both (observer left nil).
//
// Benchmarks are noisy, so the test is opt-in (OBS_BENCH=1) and gates on
// the median of obsPairs alternating base/instrumented pairs (see
// medianOverhead); it is not part of the tier-1 suite.
func TestObsOverhead(t *testing.T) {
	if os.Getenv("OBS_BENCH") == "" {
		t.Skip("set OBS_BENCH=1 to run the instrumentation overhead gate")
	}
	const n = 50000
	ks := workload.Uniform(7, n, 3, 16)
	cfg := core.Config{Capacity: 50}

	build := func(st store.Store, hook *obs.Hook) *core.File {
		f, err := core.New(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if hook != nil {
			f.SetObsHook(hook)
		}
		for _, k := range ks {
			if _, err := f.Put(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}

	base := build(store.NewMem(), nil)
	hook := &obs.Hook{} // observer stays nil: the disabled hot path
	inst := build(store.NewInstrumented(store.NewMem(), hook), hook)

	get := func(f *core.File) func() testing.BenchmarkResult {
		return func() testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := f.Get(ks[i%n]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	overhead, pairs := medianOverhead("instrumented-disabled/baseline", get(base), get(inst))
	fmt.Printf("obs-bench: disabled-instrumentation overhead %.2f%% (median of %d pairs)\n", overhead*100, obsPairs)
	if overhead > 0.05 {
		t.Errorf("disabled instrumentation costs %.2f%% on Get, budget is 5%%", overhead*100)
	}
	for _, p := range pairs {
		if db, di := p.base.AllocsPerOp(), p.treated.AllocsPerOp(); di > db {
			t.Errorf("disabled instrumentation allocates: %d allocs/op vs baseline %d", di, db)
			break
		}
	}
}

// obsPairs is how many base/treated pairs an overhead gate measures. On a
// shared host a best-of-N per side swings by more than the 5% bound from
// run to run; pairing the rounds and taking the median pair ratio cancels
// slow drift and discards outlier rounds.
const obsPairs = 11

// obsPair is one base round and the treated round run next to it.
type obsPair struct{ base, treated testing.BenchmarkResult }

// medianOverhead runs obsPairs pairs of one base and one treated round,
// alternating which side of a pair runs first so drift lands on both
// sides alike. It prints every pair's ratio and returns the median of
// treated/base ns/op, minus one, with the pairs themselves.
func medianOverhead(label string, base, treated func() testing.BenchmarkResult) (float64, []obsPair) {
	pairs := make([]obsPair, obsPairs)
	ratios := make([]float64, obsPairs)
	for i := range pairs {
		p := &pairs[i]
		if i%2 == 0 {
			p.base = base()
			p.treated = treated()
		} else {
			p.treated = treated()
			p.base = base()
		}
		ratios[i] = float64(p.treated.NsPerOp()) / float64(p.base.NsPerOp())
		fmt.Printf("obs-bench: %s pair %2d: %d / %d ns/op = %.3f\n",
			label, i, p.treated.NsPerOp(), p.base.NsPerOp(), ratios[i])
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2] - 1, pairs
}

// TestObsSpanOverhead is the enabled-path companion gate (PR 6): with span
// tracing on, warm-path Get — span checkout from the pool, a trie-search
// mark, a store-read mark, FinishSpan's histogram updates — must cost at
// most 15% more than the same file serving Get with a histogram-only
// observer attached. That baseline isolates what *spans* add: the cost of
// attaching any observer at all is the whole-op timing both configurations
// share, and the cost of having the machinery compiled in but detached is
// TestObsOverhead's separate 5% gate. Measured through the public API,
// since that is where span dispatch lives. Opt-in like TestObsOverhead
// (OBS_BENCH=1) and gated on the same median pair ratio; the measured
// chain (no observer → histograms → spans) is what E31 reports.
func TestObsSpanOverhead(t *testing.T) {
	if os.Getenv("OBS_BENCH") == "" {
		t.Skip("set OBS_BENCH=1 to run the span overhead gate")
	}
	const n = 50000
	ks := workload.Uniform(7, n, 3, 16)
	f, err := Create(Options{BucketCapacity: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, k := range ks {
		if err := f.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	get := func(o *Observer) func() testing.BenchmarkResult {
		return func() testing.BenchmarkResult {
			f.Observe(o)
			defer f.Observe(nil)
			return testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := f.Get(ks[i%n]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	rn := get(nil)()
	overhead, _ := medianOverhead("spans/histograms",
		get(NewObserver(ObserverConfig{})), get(NewObserver(ObserverConfig{Spans: true})))
	fmt.Printf("obs-bench: no-observer %d ns/op, span overhead %.2f%% over histograms (median of %d pairs)\n",
		rn.NsPerOp(), overhead*100, obsPairs)
	if overhead > 0.15 {
		t.Errorf("enabled span tracing costs %.2f%% on warm Get over a histogram-only observer, budget is 15%%", overhead*100)
	}
}
