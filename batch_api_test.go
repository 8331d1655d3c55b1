package triehash

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"triehash/internal/bucket"
	"triehash/internal/store"
	"triehash/internal/workload"
)

// bucketWith returns a one-record bucket for store-level tests/benches.
func bucketWith(key string) *bucket.Bucket {
	b := bucket.New(4)
	b.Put(key, nil)
	return b
}

// TestGetBatchMatchesGet checks the public batch lookup against its
// sequential expansion on every engine (the single-level and concurrent
// engines group keys by bucket; the multilevel engine falls back to a Get
// loop), position by position: present, absent, invalid and repeated
// keys.
func TestGetBatchMatchesGet(t *testing.T) {
	for name, opts := range map[string]Options{
		"single":     {BucketCapacity: 8, CacheFrames: 32},
		"multi":      {BucketCapacity: 8, PageCapacity: 64},
		"concurrent": {BucketCapacity: 8, CacheFrames: 32, Concurrent: true},
	} {
		t.Run(name, func(t *testing.T) {
			f, err := Create(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ks := workload.Uniform(11, 3000, 3, 10)
			for i, k := range ks {
				if err := f.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(5))
			queries := make([]string, 0, 1200)
			for i := 0; i < 1000; i++ {
				queries = append(queries, ks[rng.Intn(len(ks))])
			}
			queries = append(queries, workload.Uniform(99, 200, 3, 10)...)   // mostly absent
			queries = append(queries, "", "zzz\x00", queries[0], queries[1]) // invalid, repeated
			vals, errs := f.GetBatch(queries)
			for i, k := range queries {
				wantV, wantErr := f.Get(k)
				// Same sentinel, or the same freshly built validation error.
				if !errors.Is(errs[i], wantErr) && fmt.Sprint(errs[i]) != fmt.Sprint(wantErr) {
					t.Fatalf("GetBatch[%d](%q) err = %v, Get err = %v", i, k, errs[i], wantErr)
				}
				if string(vals[i]) != string(wantV) {
					t.Fatalf("GetBatch[%d](%q) = %q, Get = %q", i, k, vals[i], wantV)
				}
			}
		})
	}
}

// TestPutBatchMatchesPut loads the same workload (with duplicate keys)
// through PutBatch and through sequential Puts and compares the files.
func TestPutBatchMatchesPut(t *testing.T) {
	ks := workload.Uniform(17, 4000, 3, 8)
	ks = append(ks, ks[:200]...) // duplicates: later values win
	vals := make([][]byte, len(ks))
	for i := range vals {
		vals[i] = []byte(fmt.Sprintf("v%d", i))
	}
	batch, err := Create(Options{BucketCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	for i, err := range batch.PutBatch(ks, vals) {
		if err != nil {
			t.Fatalf("PutBatch[%d](%q): %v", i, ks[i], err)
		}
	}
	seq, err := Create(Options{BucketCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	for i, k := range ks {
		if err := seq.Put(k, vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if batch.Len() != seq.Len() {
		t.Fatalf("batch file Len = %d, sequential %d", batch.Len(), seq.Len())
	}
	var got, want []string
	batch.Range("", "", func(k string, v []byte) bool { got = append(got, k+"="+string(v)); return true })
	seq.Range("", "", func(k string, v []byte) bool { want = append(want, k+"="+string(v)); return true })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batch and sequential files diverge (%d vs %d records)", len(got), len(want))
	}
	if err := batch.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPutBatchLengthMismatchPanics(t *testing.T) {
	f, err := Create(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("PutBatch with mismatched lengths did not panic")
		}
	}()
	f.PutBatch([]string{"a"}, nil)
}

func TestBatchOnClosedFile(t *testing.T) {
	f, err := Create(Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, errs := f.GetBatch([]string{"a"})
	if !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("GetBatch on closed file: %v", errs[0])
	}
	if errs := f.PutBatch([]string{"a"}, [][]byte{nil}); !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("PutBatch on closed file: %v", errs[0])
	}
}

// TestCachePolicies: both pools serve the same contents and report hits
// through Stats; the default is the sharded CLOCK pool.
func TestCachePolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy CachePolicy
	}{{"clock-default", CacheClock}, {"lru", CacheLRU}} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Create(Options{BucketCapacity: 10, CacheFrames: 64, CachePolicy: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ks := workload.Uniform(31, 1000, 3, 8)
			for _, k := range ks {
				if err := f.Put(k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range ks {
				v, err := f.Get(k)
				if err != nil || string(v) != k {
					t.Fatalf("Get(%q) = %q, %v", k, v, err)
				}
			}
			st := f.Stats()
			if st.CacheHits+st.CacheMisses == 0 {
				t.Fatal("pool reported no traffic through Stats")
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// The configured policy is the one installed.
			isClock := store.AsSharded(f.eng.Store()) != nil
			if (tc.policy == CacheClock) != isClock {
				t.Fatalf("policy %v installed sharded=%v", tc.policy, isClock)
			}
		})
	}
}

// TestCachedGetZeroAlloc is the acceptance gate for the cached Get hot
// path, on both engines: with the (default) CLOCK pool warm, a public Get
// allocates nothing, for a hit and for a miss — the trie descent (or the
// concurrent engine's arena search) is path-free, the pool hit hands out
// a shared snapshot instead of a clone, the bucket search is
// closure-free and a miss returns the ErrNotFound sentinel.
func TestCachedGetZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name       string
		concurrent bool
	}{{"default", false}, {"concurrent", true}} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Create(Options{BucketCapacity: 20, CacheFrames: 4096, Concurrent: tc.concurrent})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ks := workload.Uniform(41, 5000, 3, 10)
			for _, k := range ks {
				if err := f.Put(k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range ks { // warm every bucket into the pool
				if _, err := f.Get(k); err != nil {
					t.Fatal(err)
				}
			}
			var sink []byte
			allocs := testing.AllocsPerRun(500, func() {
				v, err := f.Get(ks[4242])
				if err != nil {
					t.Fatal(err)
				}
				sink = v
			})
			_ = sink
			if allocs != 0 {
				t.Fatalf("cached Get hit allocates %v objects/op, want 0", allocs)
			}
			allocs = testing.AllocsPerRun(500, func() {
				if _, err := f.Get("absent!"); !errors.Is(err, ErrNotFound) {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("cached Get miss allocates %v objects/op, want 0", allocs)
			}
		})
	}
}
