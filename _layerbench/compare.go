package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// layers are the repository's modules on the production path, in the
// order the comparison groups per-layer metrics by (a metric's layer is
// the part of its name before the first dot).
var layers = []string{"triehash", "core", "trie", "concurrent", "store", "bucket", "wal", "obs"}

// compareFiles prints, for two results files (JSON lines as appended by
// --results), the end-to-end deltas per workload and the per-layer deltas
// grouped by layer, each side taken as the median over its runs. It
// refuses files recorded at different CPU counts. It returns the exit
// code.
func compareFiles(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: layerbench --compare OLD.jsonl NEW.jsonl")
		return 2
	}
	var sides [2][]result
	for i, path := range args {
		rs, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "layerbench:", err)
			return 2
		}
		sides[i] = rs
	}
	cpus := map[int]bool{}
	for _, rs := range sides {
		for _, r := range rs {
			cpus[r.Env.NumCPU] = true
		}
	}
	if len(cpus) != 1 {
		fmt.Fprintf(os.Stderr, "layerbench: results were recorded at different num_cpu %v; not comparable\n", keys(cpus))
		return 2
	}
	old, cur := medians(sides[0]), medians(sides[1])
	for _, wl := range keys(old) {
		if cur[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "== %s (runs: %d untraced, %d traced vs %d, %d)\n", wl,
			old[wl].runs[0], old[wl].runs[1], cur[wl].runs[0], cur[wl].runs[1])
		fmt.Fprintln(w, "end to end:")
		printDeltas(w, old[wl].m[0], cur[wl].m[0], keys(old[wl].m[0]))
		for _, layer := range layers {
			var names []string
			for _, n := range keys(old[wl].m[1]) {
				if strings.HasPrefix(n, layer+".") {
					names = append(names, n)
				}
			}
			if len(names) > 0 {
				fmt.Fprintf(w, "layer %s:\n", layer)
				printDeltas(w, old[wl].m[1], cur[wl].m[1], names)
			}
		}
	}
	return 0
}

func printDeltas(w io.Writer, old, cur map[string]metric, names []string) {
	for _, n := range names {
		o, ok := cur[n]
		if !ok {
			continue
		}
		delta := "n/a"
		if old[n].Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(o.Value/old[n].Value-1))
		}
		fmt.Fprintf(w, "  %-40s %14.6g -> %-14.6g %-6s %s\n", n, old[n].Value, o.Value, o.Unit, delta)
	}
}

// summary is one side's medians for a workload: [0] untraced, [1] traced.
type summary struct {
	m    [2]map[string]metric
	runs [2]int
}

func medians(rs []result) map[string]*summary {
	samples := map[string]*[2]map[string][]float64{}
	units := map[string]string{}
	out := map[string]*summary{}
	for _, r := range rs {
		if samples[r.Workload] == nil {
			samples[r.Workload] = &[2]map[string][]float64{{}, {}}
			out[r.Workload] = &summary{m: [2]map[string]metric{{}, {}}}
		}
		out[r.Workload].runs[r.Trace]++
		for n, m := range r.Metrics {
			samples[r.Workload][r.Trace][n] = append(samples[r.Workload][r.Trace][n], m.Value)
			units[n] = m.Unit
		}
	}
	for wl, s := range samples {
		for t := range s {
			for n, xs := range s[t] {
				out[wl].m[t][n] = metric{Value: median(xs), Unit: units[n]}
			}
		}
	}
	return out
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 && r.Trace != 1 {
			return nil, fmt.Errorf("%s: record with trace %d", path, r.Trace)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func keys[V any, K int | string](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
