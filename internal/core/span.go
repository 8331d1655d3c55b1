package core

import (
	"triehash/internal/bucket"
	"triehash/internal/obs"
	"triehash/internal/trie"
)

// This file holds the span-carrying variants of the File operations:
// identical semantics to Get/Put/Delete/Range/GetBatch, plus stage marks
// charging the op's time to the span's trie-search, store-I/O and
// split/merge stages. They are separate methods — not a parameter on the
// plain ops — so the uninstrumented hot path keeps its exact shape (the
// ≤5% disabled-overhead gate times File.Get directly). A nil span is
// legal everywhere and degrades each variant to its plain twin.
//
// core is a deterministic package (the determinism analyzer forbids
// reading the clock here), so every timestamp is taken inside the obs
// package, behind Span's methods.

// viewSpan is view with span attribution: the store's span-aware viewer
// splits the access into cache-probe vs store-read when it can; stores
// without one charge the whole access to store-read.
func (f *File) viewSpan(addr int32, sp *obs.Span) (*bucket.Bucket, error) {
	if f.spanViewer != nil {
		return f.spanViewer.ReadViewSpan(addr, sp)
	}
	b, err := f.view(addr)
	sp.Mark(obs.StageStoreRead)
	return b, err
}

// GetSpan is Get with stage attribution.
func (f *File) GetSpan(key string, sp *obs.Span) ([]byte, error) {
	if err := f.cfg.Alphabet.Validate(key); err != nil {
		return nil, err
	}
	leaf := f.trie.SearchAddr(key)
	sp.Mark(obs.StageTrieSearch)
	if leaf.IsNil() {
		return nil, ErrNotFound
	}
	b, err := f.viewSpan(leaf.Addr(), sp)
	if err != nil {
		return nil, err
	}
	v, ok := b.Get(key)
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

// PutSpan is Put with stage attribution. Split work is charged to the
// split stage, or to the redistribute stage when the overflow resolved by
// shifting keys into an existing neighbour.
func (f *File) PutSpan(key string, value []byte, sp *obs.Span) (bool, error) {
	if err := f.cfg.Alphabet.Validate(key); err != nil {
		return false, err
	}
	res := f.trie.Search(key)
	sp.Mark(obs.StageTrieSearch)
	if res.Leaf.IsNil() {
		addr, err := f.st.Alloc()
		if err != nil {
			return false, err
		}
		b := bucket.New(f.cfg.Capacity)
		b.SetBound(res.Path)
		b.Put(key, value)
		if err := f.st.Write(addr, b); err != nil {
			f.freeBestEffort(addr)
			return false, err
		}
		sp.Mark(obs.StageStoreWrite)
		f.trie.AllocNil(res.Pos, addr)
		f.nkeys++
		f.emit(obs.EvNilAlloc, addr, -1, "")
		return false, nil
	}
	addr := res.Leaf.Addr()
	b, err := f.st.Read(addr)
	sp.Mark(obs.StageStoreRead)
	if err != nil {
		return false, err
	}
	replaced := b.Put(key, value)
	if replaced {
		err := f.st.Write(addr, b)
		sp.Mark(obs.StageStoreWrite)
		return true, err
	}
	if b.Len() <= f.cfg.Capacity {
		err := f.st.Write(addr, b)
		sp.Mark(obs.StageStoreWrite)
		if err != nil {
			return false, err
		}
		f.nkeys++
		return false, nil
	}
	rd := f.redistributions
	if err := f.split(addr, b); err != nil {
		return false, err
	}
	if f.redistributions > rd {
		sp.Mark(obs.StageRedistribute)
	} else {
		sp.Mark(obs.StageSplit)
	}
	f.nkeys++
	return false, nil
}

// DeleteSpan is Delete with stage attribution; merge maintenance (probe
// and action) is charged to the merge stage.
func (f *File) DeleteSpan(key string, sp *obs.Span) error {
	if err := f.cfg.Alphabet.Validate(key); err != nil {
		return err
	}
	res := f.trie.Search(key)
	sp.Mark(obs.StageTrieSearch)
	if res.Leaf.IsNil() {
		return ErrNotFound
	}
	addr := res.Leaf.Addr()
	b, err := f.st.Read(addr)
	sp.Mark(obs.StageStoreRead)
	if err != nil {
		return err
	}
	if !b.Delete(key) {
		return ErrNotFound
	}
	if err := f.st.Write(addr, b); err != nil {
		return err
	}
	sp.Mark(obs.StageStoreWrite)
	f.nkeys--
	err = f.maintainAfterDelete(key, res, addr, b)
	sp.Mark(obs.StageMerge)
	return err
}

// RangeSpan is Range with stage attribution: walk time between bucket
// accesses is charged to trie-search, the accesses themselves to
// cache-probe/store-read.
func (f *File) RangeSpan(from, to string, fn func(key string, value []byte) bool, sp *obs.Span) error {
	if to != "" && to < from {
		return nil
	}
	alpha := f.cfg.Alphabet
	lastRead := int32(-1)
	var walkErr error
	f.trie.WalkLeavesFrom(from, func(lp trie.LeafPos) bool {
		if len(lp.Path) > 0 && !alpha.KeyLEBound(from, lp.Path) {
			return true
		}
		if lp.Leaf.IsNil() {
			return true
		}
		addr := lp.Leaf.Addr()
		if addr != lastRead {
			lastRead = addr
			sp.Mark(obs.StageTrieSearch)
			b, err := f.viewSpan(addr, sp)
			if err != nil {
				walkErr = err
				return false
			}
			if !b.Ascend(from, to, func(r bucket.Record) bool { return fn(r.Key, r.Value) }) {
				return false
			}
		}
		if to != "" && len(lp.Path) > 0 && alpha.KeyLEBound(to, lp.Path) {
			return false
		}
		return true
	})
	sp.Mark(obs.StageTrieSearch)
	return walkErr
}

// GetBatchSpan is GetBatch with stage attribution: the whole partition
// pass is charged to trie-search, each bucket access to its own stage.
func (f *File) GetBatchSpan(keys []string, sp *obs.Span) (vals [][]byte, errs []error) {
	vals = make([][]byte, len(keys))
	errs = make([]error, len(keys))
	groups := make(map[int32][]int, len(keys))
	for i, k := range keys {
		if err := f.cfg.Alphabet.Validate(k); err != nil {
			errs[i] = err
			continue
		}
		leaf := f.trie.SearchAddr(k)
		if leaf.IsNil() {
			errs[i] = ErrNotFound
			continue
		}
		groups[leaf.Addr()] = append(groups[leaf.Addr()], i)
	}
	sp.Mark(obs.StageTrieSearch)
	for addr, idxs := range groups {
		b, err := f.viewSpan(addr, sp)
		if err != nil {
			for _, i := range idxs {
				errs[i] = err
			}
			continue
		}
		for _, i := range idxs {
			if v, ok := b.Get(keys[i]); ok {
				vals[i] = v
			} else {
				errs[i] = ErrNotFound
			}
		}
	}
	return vals, errs
}
