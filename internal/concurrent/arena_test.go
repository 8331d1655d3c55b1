package concurrent

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"triehash/internal/keys"
	"triehash/internal/trie"
)

// TestArenaSearchWhileGrowing runs lock-free searches while the mirrored
// trie grows across several cell chunks, so readers meet cells in chunks
// appended after they loaded the chunk directory.
func TestArenaSearchWhileGrowing(t *testing.T) {
	tr := trie.New(keys.ASCII, 0)
	a := NewArena(tr)
	tr.SetTracer(a)
	const splits = 3000
	ks := make([]string, splits)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%06d", i)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				k := ks[rng.Intn(len(ks))]
				if p := a.Search(k); !p.IsLeaf() || p.IsNil() {
					t.Errorf("Search(%q) = %v", k, p)
					return
				}
				if p, _ := a.SearchPath(k); !p.IsLeaf() || p.IsNil() {
					t.Errorf("SearchPath(%q) = %v", k, p)
					return
				}
			}
		}(int64(r))
	}
	// Ascending split keys always split the last bucket.
	for i, k := range ks {
		last := tr.SearchAddr(k).Addr()
		tr.SetBoundary(k, []byte(k), last, last, int32(i+1), trie.ModeTHCL)
	}
	done.Store(true)
	wg.Wait()
	if a.Cells() < 3*arenaChunkSize {
		t.Fatalf("arena holds %d cells, want several chunks", a.Cells())
	}
	for _, k := range ks {
		if got, want := a.Search(k), tr.SearchAddr(k); got != want {
			t.Fatalf("Search(%q) = %v, trie says %v", k, got, want)
		}
	}
}
