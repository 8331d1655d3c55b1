package main

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"strconv"

	"triehash/internal/workload"
)

// Every input is a pure function of the run's seed: the program under
// test receives only the generated keys and values.

// valueFor appends to dst[:0] the value the seed assigns to key: 16 to 31
// pseudo-random bytes. Verification recomputes it, so a read can be
// checked without a table of expected values.
func valueFor(dst []byte, seed int64, key string) []byte {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ 0xcbf29ce484222325
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	n := 16 + int(h%16)
	dst = dst[:0]
	var w [8]byte
	for len(dst) < n {
		h = splitmix(h)
		binary.LittleEndian.PutUint64(w[:], h)
		dst = append(dst, w[:]...)
	}
	return dst[:n]
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// records pairs keys with their seeded values.
func records(seed int64, keys []string) [][]byte {
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = valueFor(nil, seed, k)
	}
	return vals
}

// dictKeys is the dictionary stand-in: distinct English-like
// pseudo-words, ascending (the bulk-load order).
func dictKeys(seed int64, n int) []string {
	ks := workload.EnglishLike(seed, n)
	sort.Strings(ks)
	return ks
}

// zipfDraws returns m indices into n keys with Zipf(s) popularity. The
// popularity ranks are scattered over the key space by a seeded
// permutation, so the hot keys are not one alphabetical run.
func zipfDraws(seed int64, n, m int, s float64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	out := make([]int32, m)
	for i := range out {
		out[i] = int32(perm[z.Uint64()])
	}
	return out
}

// windowKeys returns n time-ordered event keys (ascending), starting at
// a seeded timestamp.
func windowKeys(seed int64, n int) []string {
	t0 := 1_600_000_000_000 + rand.New(rand.NewSource(seed)).Int63n(1_000_000_000)
	out := make([]string, n)
	for i := range out {
		out[i] = "ev." + strconv.FormatInt(t0+int64(i), 10)
	}
	return out
}
