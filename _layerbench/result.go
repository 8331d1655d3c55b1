package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"triehash"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the full record of one run. The last line of standard output
// carries its summary (correct, attempted, failed, metrics); the whole
// record, environment and options included, is appended to the results
// file as one JSON line for later comparison.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     int              `json:"trace"`
	Env       environment      `json:"env"`
	Options   triehash.Options `json:"options"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   metrics          `json:"metrics"`
	Latency   []latencyRow     `json:"latency"`
	// TailStages is the traced run's slow-op flight recorder folded per
	// operation: the share of each stage in the ops above the adaptive p99.
	TailStages map[string]map[string]float64 `json:"tail_stages,omitempty"`
	Notes      []string                      `json:"notes,omitempty"`
}

type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Clients    int    `json:"clients"`
}

// latencyRow is one client's latency for one call type, with its sample
// count.
type latencyRow struct {
	Client int     `json:"client"`
	Op     string  `json:"op"`
	Count  int64   `json:"count"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
}

func newResult(workload string, seed int64, seconds, trace int) *result {
	return &result{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Env: environment{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
			Clients: 2,
		},
		Metrics: metrics{},
	}
}

// tallyClients adds the clients' calls and failures to the run's counts
// (once per client set) and returns the calls.
func (r *result) tallyClients(cs []*client) int64 {
	for _, c := range cs {
		r.Attempted += c.calls
		r.Failed += c.failed
	}
	return callsOf(cs)
}

func (r *result) addLatency(cs []*client) {
	for _, c := range cs {
		for op := range c.total {
			h := &c.total[op]
			if h.n == 0 {
				continue
			}
			r.Latency = append(r.Latency, latencyRow{
				Client: c.id, Op: opNames[op], Count: h.n,
				P50us: h.quantile(0.50), P99us: h.quantile(0.99),
			})
		}
	}
}

// print writes the human-readable report and, last, the summary line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload=%s seed=%d trace=%d num_cpu=%d gomaxprocs=%d %s\n",
		r.Workload, r.Seed, r.Trace, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion)
	for _, l := range r.Latency {
		fmt.Fprintf(w, "  client%d %-6s n=%-9d p50=%.2fus p99=%.2fus\n", l.Client, l.Op, l.Count, l.P50us, l.P99us)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for op, stages := range r.TailStages {
		fmt.Fprintf(w, "  tail %s:", op)
		for _, s := range sortedShares(stages) {
			fmt.Fprintf(w, " %s=%.0f%%", s, 100*stages[s])
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// sortedShares orders stage names by descending share.
func sortedShares(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return m[out[i]] > m[out[j]] })
	return out
}

// appendRecord appends the full record to path as one JSON line.
func (r *result) appendRecord(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
