// Command perfbench is the repository's benchmark: it runs one of three
// workloads against a 1-master, 2-slave DMV tier with 2 closed-loop
// clients, checks the outcome, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) with the last line one JSON object.
//
//	bash perfbench/run.sh --workload tpcw-browsing --seed 1 --seconds 10 --trace 0
//
// Each client executes a sequence of operations generated from the seed
// and the run length; a run ends when the sequences are done, not at a
// deadline, so the data a run leaves behind does not depend on the speed of
// the code. The metrics registry and the flight recorder are wired in every
// workload, as the -metrics-addr deployments run them, and every layer is
// timed from outside: at the calls into its functions, from the registry's
// metrics, and from runtime/metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"dmv/internal/tpcw"
)

// clients is the number of closed-loop clients. With at most two reads in
// flight on two slaves, the scheduler's wait for a slave at the tagged
// version never has to poll.
const clients = 2

// setupRepeats is how many times a --trace 0 run builds the cluster; it
// reports the median set-up time and measures on the last one.
const setupRepeats = 3

// workload is one traffic mix and the tier it runs on.
type workload struct {
	name string
	kv   bool     // kv-point-tcp: the key-value table over TCP
	mix  tpcw.Mix // TPC-W mix
	wal  bool     // add the crash-durable persistence tier
	// opsPerSecond sizes a run: each run executes opsPerSecond x --seconds
	// operations, about --seconds of work on a 2-CPU host.
	opsPerSecond int
}

var workloads = []*workload{
	{name: "tpcw-browsing", mix: tpcw.BrowsingMix, opsPerSecond: 1100},
	{name: "tpcw-ordering-wal", mix: tpcw.OrderingMix, wal: true, opsPerSecond: 900},
	{name: "kv-point-tcp", kv: true, opsPerSecond: 12000},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: tpcw-browsing, tpcw-ordering-wal or kv-point-tcp")
		seed    = flag.Int64("seed", 1, "seed of the generated operation sequences")
		seconds = flag.Int("seconds", 10, "run length; sizes the operation sequences")
		trace   = flag.Int("trace", 0, "1 = print the per-layer metrics of a traced run")
	)
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	// WAL directories and span dumps go under the working directory.
	const outDir = ".bench_out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("workload %s seed %d seconds %d: 1 master + 2 slaves, %d closed-loop clients, %d operations\n",
		w.name, *seed, *seconds, clients, w.opsPerSecond**seconds)
	if w.wal {
		fmt.Printf("wal: policy always, directory on %s\n", fsName(outDir))
	}

	var out result
	if *trace == 0 {
		res, err := runOnce(w, *seed, *seconds, setupRepeats, nil, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		out = report(res, endToEndValues(res), nil)
	} else {
		base, err := runOnce(w, *seed, *seconds, 1, nil, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		tr := newTracer()
		traced, err := runOnce(w, *seed, *seconds, 1, tr, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printTraceTables(w, traced)
		out = report(base, layerValues(base, traced), &traced)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the metrics a user of the cluster sees, in print order.
var endToEnd = []struct{ name, unit string }{
	{"throughput_tps", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"update_p50_us", "us"},
	{"update_p99_us", "us"},
	{"success_frac", "ratio"},
	{"cpu_us_per_txn", "us"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

func endToEndValues(res runResult) map[string]float64 {
	m := res.measured
	committed := float64(m.committed())
	return map[string]float64{
		"throughput_tps": committed / res.d.wall.Seconds(),
		"read_p50_us":    quantile(m.reads, 0.50) / 1e3,
		"read_p99_us":    quantile(m.reads, 0.99) / 1e3,
		"update_p50_us":  quantile(m.updates, 0.50) / 1e3,
		"update_p99_us":  quantile(m.updates, 0.99) / 1e3,
		"success_frac":   per(committed, float64(m.attempted)),
		"cpu_us_per_txn": per(float64(res.d.cpu.Microseconds()), committed),
		"live_heap_mb":   float64(res.liveHeap) / 1e6,
		"setup_s":        median(res.setups),
	}
}

// report prints the run's sample counts, failures, checks and metrics, and
// returns the result object. traced, when set, is the traced run of a
// --trace 1 invocation; its operations and checks count too.
func report(res runResult, values map[string]float64, traced *runResult) result {
	runs := []runResult{res}
	if traced != nil {
		runs = append(runs, *traced)
	}
	out := result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range runs {
		label := "untraced"
		if i == 1 {
			label = "traced"
		}
		m := r.measured
		var tps []string
		for _, c := range r.chunks {
			tps = append(tps, fmt.Sprintf("%.0f", float64(c.ph.committed())/c.d.wall.Seconds()))
		}
		fmt.Printf("%s run: throughput per slice %s\n", label, strings.Join(tps, " "))
		fmt.Printf("%s run: warm-up attempted %d, failed %d; measured attempted %d, committed %d, failed %d; samples read %d, update %d; set-up %s s\n",
			label, r.warmup.attempted, r.warmup.failed, m.attempted, m.committed(), m.failed, len(m.reads), len(m.updates), fmtList(r.setups))
		for _, class := range []struct {
			name string
			n    int
		}{{"read", len(m.reads)}, {"update", len(m.updates)}} {
			if class.n < 1000 {
				fmt.Printf("note: %s_p99_us rests on %d samples, fewer than 1000\n", class.name, class.n)
			}
		}
		for _, l := range failureLines(r.warmup.causes) {
			fmt.Println("warm-up", l)
		}
		for _, l := range failureLines(m.causes) {
			fmt.Println(l)
		}
		for _, c := range r.checks {
			fmt.Println("check failed:", c)
		}
		out.Attempted += r.warmup.attempted + m.attempted
		out.Failed += r.warmup.failed + m.failed
		out.Correct = out.Correct && r.correct()
	}
	if traced == nil {
		for _, e := range endToEnd {
			out.Metrics[e.name] = metric{values[e.name], e.unit}
			fmt.Printf("%-36s %14.3f %s\n", e.name, values[e.name], e.unit)
		}
	} else {
		for _, l := range layerMetrics {
			out.Metrics[l.name] = metric{values[l.name], l.unit}
			fmt.Printf("%-36s %14.3f %-8s (%s is better) moves %s on %s\n", l.name, values[l.name], l.unit, l.better, l.moves, l.on)
		}
	}
	fmt.Printf("correct: %v\n", out.Correct)
	return out
}

// printTraceTables prints the per-interaction latency table and the span
// self-time table of a traced run.
func printTraceTables(w *workload, res runResult) {
	fmt.Println("per-interaction latency (traced run):")
	fmt.Printf("  %-22s %8s %12s %12s\n", "interaction", "count", "p50_us", "p99_us")
	tags := make([]string, 0, len(res.measured.byTag))
	for t := range res.measured.byTag {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	for _, t := range tags {
		lat := res.measured.byTag[t]
		fmt.Printf("  %-22s %8d %12.1f %12.1f\n", t, len(lat), quantile(lat, 0.5)/1e3, quantile(lat, 0.99)/1e3)
	}
	fmt.Println("spans (traced run; self = span minus its children):")
	fmt.Printf("  %-24s %9s %12s %12s\n", "kind/tag", "count", "mean_us", "self_mean_us")
	keys := make([]string, 0, len(res.spans.byKind))
	for k := range res.spans.byKind {
		if strings.Contains(k, "/") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := res.spans.byKind[k]
		fmt.Printf("  %-24s %9d %12.1f %12.1f\n", k, s.count, s.meanUS(), float64(s.self)/float64(s.count)/1e3)
	}
	fmt.Printf("spans written to .bench_out/spans-%s.tsv\n", w.name)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ",")
}
