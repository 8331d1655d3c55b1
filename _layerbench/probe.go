package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"triehash/internal/bucket"
	"triehash/internal/concurrent"
	"triehash/internal/core"
	"triehash/internal/format"
	"triehash/internal/store"
	"triehash/internal/trie"
	"triehash/internal/wal"
)

// probeFor is how long each timed probe loop runs, at least.
const probeFor = 200 * time.Millisecond

// sink keeps probe results live so the compiler cannot drop the calls.
var sink int64

// probe times each layer's exported functions from outside, on a copy of
// the workload's final (closed) file: trie and arena search over the
// workload's keys, page decode and v2 encode over the file's own pages,
// and — for workloads that write — the log device's append+fsync on the
// same filesystem. One span per probe pass goes to log.
func (b *bench) probe(m metrics, log *spanLog) error {
	dir := filepath.Join(b.work, "probe")
	if err := copyDir(b.dir, dir, false); err != nil {
		return err
	}
	meta, err := os.ReadFile(filepath.Join(dir, "meta.th"))
	if err != nil {
		return err
	}
	fs, err := store.OpenFile(filepath.Join(dir, "buckets.th"))
	if err != nil {
		return err
	}
	defer fs.Close()
	c, err := core.Open(meta, fs)
	if err != nil {
		return fmt.Errorf("probe: open core: %w", err)
	}
	keys := b.s.probeKeys()
	t := c.Trie()
	m.set("trie.probe_search_ns", timeSearch(log, "probe.trie.search_addr", keys, func(k string) trie.Ptr { return t.SearchAddr(k) }), "ns")
	a := concurrent.NewArena(t)
	m.set("concurrent.probe_search_ns", timeSearch(log, "probe.concurrent.arena_search", keys, a.Search), "ns")

	pages, err := rawPages(fs)
	if err != nil {
		return err
	}
	var used int
	for _, p := range pages {
		used += len(p)
	}
	m.set("bucket.page_fill", float64(used)/float64(len(pages)*fs.PayloadSize()), "ratio")
	decoded := make([]*bucket.Bucket, len(pages))
	ns := timePasses(log, "probe.bucket.decode", len(pages), func() error {
		for i, p := range pages {
			bk, _, err := bucket.DecodeBinary(p)
			if err != nil {
				return fmt.Errorf("probe: decode page: %w", err)
			}
			decoded[i] = bk
		}
		return nil
	})
	if ns < 0 {
		return fmt.Errorf("probe: a page of the final file does not decode")
	}
	m.set("bucket.decode_ns_per_page", ns, "ns")
	buf := make([]byte, 0, fs.SlotSize())
	m.set("bucket.encode_ns_per_page", timePasses(log, "probe.bucket.encode_v2", len(decoded), func() error {
		for _, bk := range decoded {
			buf = bk.AppendFormat(buf[:0], format.V2)
		}
		sink += int64(len(buf))
		return nil
	}), "ns")

	if b.s.writes() {
		us, err := deviceFsync(filepath.Join(b.work, "probe.wal"), log)
		if err != nil {
			return err
		}
		m.set("wal.probe_device_fsync_us", us, "us")
	}
	return nil
}

// timeSearch returns the mean ns of one search over keys, repeating
// passes until probeFor has elapsed.
func timeSearch(log *spanLog, name string, keys []string, search func(string) trie.Ptr) float64 {
	return timePasses(log, name, len(keys), func() error {
		var acc trie.Ptr
		for _, k := range keys {
			acc ^= search(k)
		}
		sink += int64(acc)
		return nil
	})
}

// timePasses runs pass (n items each) until probeFor has elapsed and
// returns the mean ns per item, or -1 if a pass failed.
func timePasses(log *spanLog, name string, n int, pass func() error) float64 {
	var items int
	t0 := time.Now()
	for time.Since(t0) < probeFor {
		p0 := time.Now()
		if err := pass(); err != nil {
			return -1
		}
		log.addNamed(-1, name, p0, time.Now())
		items += n
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(items)
}

// rawPages reads every live slot's payload as stored, through ReadRaw
// (slot layout: flags, payload length, crc32, payload).
func rawPages(fs *store.FileStore) ([][]byte, error) {
	var pages [][]byte
	for addr := int32(0); addr < fs.MaxAddr(); addr++ {
		raw, err := fs.ReadRaw(addr)
		if err != nil {
			return nil, err
		}
		if raw[0] != 1 { // a freed slot
			continue
		}
		n := binary.LittleEndian.Uint32(raw[1:5])
		pages = append(pages, raw[9:9+n])
	}
	return pages, nil
}

// deviceFsync returns the median µs of 64 log-record appends, each
// followed by Sync, on a fresh log device.
func deviceFsync(path string, log *spanLog) (float64, error) {
	dev, err := wal.OpenFileDevice(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer dev.Close()
	rec := make([]byte, 64)
	var us []float64
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if err := dev.Append(rec); err != nil {
			return 0, fmt.Errorf("probe: wal append: %w", err)
		}
		if err := dev.Sync(); err != nil {
			return 0, fmt.Errorf("probe: wal sync: %w", err)
		}
		t1 := time.Now()
		log.addNamed(-1, "probe.wal.append_sync", t0, t1)
		us = append(us, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}
