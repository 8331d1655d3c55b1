// Command layerbench is the repository's benchmark: two workloads run
// through the public triehash API on the production stack — a persistent
// file on the concurrent engine with FileStore, the sharded CLOCK pool,
// the write-ahead log (one fsync per commit group, 1 MiB checkpoints) and
// v2 pages — by two closed-loop clients in one process.
//
//	run.sh --workload dict-read --seed 1 --seconds 25 --trace 0
//	run.sh --compare old.jsonl new.jsonl
//
// --trace 0 times every public call from the harness, with no observer
// attached, and reports the end-to-end metrics. --trace 1 alternates
// untraced rounds with traced ones (an Observer with span tracing
// attached, plus the harness's own spans) and reports per-layer metrics
// named after the repository's modules, then times each layer's exported
// functions on the workload's final file. Every run checks every answer
// and, after the timed phase, recovers a kill-state copy of the file and
// verifies it. The last line of standard output is the JSON summary.
// README.md defines the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "dict-read or window-scan")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed all inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for the workload's files (removed afterwards)")
	flag.StringVar(&cfg.results, "results", "", "append the full result record to this JSON-lines file")
	flag.StringVar(&cfg.spans, "spans", "", "directory to write the traced run's span log to")
	compare := flag.Bool("compare", false, "compare two results files given as arguments instead of running")
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args(), os.Stdout))
	}
	if err := runBench(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload       string
	seed           int64
	seconds, trace int
	workdir        string
	results, spans string
}

func runBench(cfg config) error {
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	s, err := newScenario(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	work := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bench{
		s: s, seconds: time.Duration(cfg.seconds) * time.Second,
		work: work, dir: filepath.Join(work, "file"), epoch: time.Now(),
		clients: [2][]*client{newClients(), newClients()},
	}
	if cfg.trace == 1 {
		for _, c := range b.clients[1] {
			c.spans = newSpanLog(b.epoch, 1, spanCap)
		}
	}
	runtime.GC()
	b.heap0 = heapInuse()
	res := newResult(cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if cfg.trace == 0 {
		err = b.measure(res)
	} else {
		err = b.traced(res, cfg.spans)
	}
	if err != nil {
		return err
	}
	res.Options = s.options()
	res.Attempted += b.checks.attempted
	res.Failed += b.checks.failed
	res.Correct = res.Failed == 0
	res.Notes = b.notes
	if cfg.results != "" {
		if err := res.appendRecord(cfg.results); err != nil {
			return fmt.Errorf("results file: %w", err)
		}
	}
	return res.print(os.Stdout)
}
