package triehash

import (
	"fmt"

	"triehash/internal/obs"
)

// GetBatch looks up many keys in one call. The file lock is taken once
// for the whole batch, and on single-level files the keys are partitioned
// by trie leaf so each qualifying bucket is accessed exactly once no
// matter how many keys it serves. Results align with keys: errs[i] is nil
// and vals[i] the value on success; errs[i] is ErrNotFound (or a
// validation error) otherwise. The batch is timed as one OpGetBatch
// sample when an observer is attached.
func (f *File) GetBatch(keys []string) (vals [][]byte, errs []error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		errs = make([]error, len(keys))
		for i := range errs {
			errs[i] = ErrClosed
		}
		return make([][]byte, len(keys)), errs
	}
	t := f.hook.Observer().StartOp(obs.OpGetBatch)
	defer t.FinishOp()
	vals, errs = f.eng.GetBatchSpan(keys, t.Span())
	for i, err := range errs {
		errs[i] = mapNotFound(err)
	}
	return vals, errs
}

// PutBatch inserts or replaces many records in one call under a single
// acquisition of the file lock, with input order winning ties (when a key
// appears twice the later value is the one stored). errs aligns with keys;
// the batch is timed as one OpPutBatch sample when an observer is
// attached. On a concurrent file the batch partitions by bucket and the
// bucket work — split I/O included — fans out across CPUs. With
// Options.WAL the whole batch rides one group-commit rendezvous: its
// accepted records are durable in the log when the call returns.
func (f *File) PutBatch(keys []string, values [][]byte) (errs []error) {
	errs = f.putBatchOp(keys, values)
	f.maybeCheckpoint()
	return errs
}

// putBatchOp is PutBatch under the file lock. Records over the
// persistent-file size limit are carved out first, so they fail exactly
// as single Puts would; the rest go to the engine in one call.
func (f *File) putBatchOp(keys []string, values [][]byte) (errs []error) {
	if len(keys) != len(values) {
		panic(fmt.Sprintf("triehash: PutBatch with %d keys but %d values", len(keys), len(values)))
	}
	t := f.hook.Observer().StartOp(obs.OpPutBatch)
	defer t.FinishOp()
	defer f.opLock()()
	sp := t.Span()
	sp.Mark(obs.StageFileLock)
	errs = make([]error, len(keys))
	if f.closed {
		for i := range errs {
			errs[i] = ErrClosed
		}
		return errs
	}
	ks, vs := keys, values
	var idx []int
	if f.maxRecord > 0 {
		ks = make([]string, 0, len(keys))
		vs = make([][]byte, 0, len(keys))
		idx = make([]int, 0, len(keys))
		for i, k := range keys {
			if errs[i] = f.checkRecord(k, values[i]); errs[i] != nil {
				continue
			}
			ks = append(ks, k)
			vs = append(vs, values[i])
			idx = append(idx, i)
		}
	}
	for j, err := range f.eng.PutBatchSpan(ks, vs, sp) {
		i := j
		if idx != nil {
			i = idx[j]
		}
		errs[i] = mapNotFound(err)
	}
	f.walAppendBatch(keys, values, errs, sp)
	return errs
}
