// Command stackbench is the repository's end-to-end benchmark. It drives
// the public chainsplit API on three workloads — point queries beside a
// large EDB, the paper's recursions, and replicated durable writes —
// checks every answer against an independent model, and prints each
// metric by name and unit, then one JSON summary line.
//
//	go run . --workload point-100k --seed 1 --seconds 10 --trace 0
//	go run . --workload cluster-writes --seed 1 --seconds 10 --steady 5
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// with query tracing and prints the per-layer metrics instead.
// --steady N runs N child processes on seeds seed..seed+N-1 and prints
// each metric's median, quartiles and spread. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// deadline stops a run that would overrun the benchmark's time limit.
const deadline = 170 * time.Second

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "point-100k, paper-recursions or cluster-writes")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed loop")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	steady := flag.Int("steady", 0, "run N seeds in child processes and print quartiles")
	flag.Parse()
	build, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "stackbench: --workload must be point-100k, paper-recursions or cluster-writes; --seconds >= 1; --trace 0 or 1")
		os.Exit(2)
	}
	if *steady > 0 {
		os.Exit(steadiness(*steady, *workload, *seed, *seconds, *trace))
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "stackbench: run exceeded %v\n", deadline)
		os.Exit(1)
	})
	os.Exit(benchmark(build, *seed, *seconds, *trace == 1))
}

// benchmark runs one workload and prints its result; it returns the
// exit code: non-zero on any failed operation or wrong answer.
func benchmark(build func(int64) *spec, seed int64, seconds int, trace bool) int {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		return 1
	}
	root, err := os.MkdirTemp(".bench_build", "stackbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		return 1
	}
	defer os.RemoveAll(root)
	r := newRunner(func() *spec { return build(seed) }, root, trace, os.Stderr)
	if err := r.run(time.Duration(seconds) * time.Second); err != nil {
		r.count("run", err)
	}

	res := result{Correct: r.wrong == 0, Metrics: map[string]metricJSON{}}
	var kinds []string
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t := r.ops[k]
		fmt.Printf("op %-14s attempted %6d failed %d\n", k, t.attempted, t.failed)
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	var classes []string
	for c := range r.classMs {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		v := r.classMs[c]
		fmt.Printf("class %-12s queries %6d p50 %9.3f ms p90 %9.3f ms\n", c, len(v), quantile(v, 0.5), quantile(v, 0.9))
	}
	var ms []metric
	if trace {
		r.layers.writeTail(r.writes)
		ms = r.layers.metrics()
		// Admission never queues a single client, so the wait reads exactly
		// 0; it is printed as a regression check but kept out of the
		// summary, which holds only measured values.
		fmt.Printf("%-30s %14.6f ms (not in the summary)\n", "admission.wait_ms", median(r.layers.admission))
	} else {
		ms = r.endToEnd()
	}
	for _, m := range ms {
		fmt.Println(m)
		res.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func (r *runner) endToEnd() []metric {
	return []metric{
		{"setup_s", "s", median(r.setupS)},
		{"queries_per_s", "1/s", float64(len(r.loopMs)) / r.loopSecs},
		{"query_p50_ms", "ms", quantile(r.loopMs, 0.5)},
		{"query_p90_ms", "ms", quantile(r.loopMs, 0.9)},
		{"write_p50_ms", "ms", quantile(r.writes.writeMs, 0.5)},
		{"visible_p50_ms", "ms", quantile(r.writes.visibleMs, 0.5)},
		{"recovery_s", "s", median(r.recoveryS)},
		{"live_heap_mb", "MB", r.heapMB},
		{"disk_bytes_per_fact", "bytes/fact", r.bytesPerFact},
	}
}

// steadiness runs the workload n times in child processes, one after
// another, and prints each metric's median, quartiles and spread (the
// quartile distance as a share of the median).
func steadiness(n int, workload string, seed int64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []string
	code := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil {
			fmt.Fprintf(os.Stderr, "stackbench: seed %d: %v %v\n", s, err, jerr)
			code = 1
			continue
		}
		fmt.Printf("seed %d: correct %v attempted %d failed %d\n", s, res.Correct, res.Attempted, res.Failed)
		failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %12s %12s %12s %8s  unit\n", "metric", "median", "q1", "q3", "spread")
	for _, name := range names {
		v := values[name]
		q1, q3 := quartiles(v)
		med := median(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-30s %12.4f %12.4f %12.4f %8.4f  %s\n", name, med, q1, q3, spread, units[name])
	}
	fmt.Println("failed/attempted per run:", strings.Join(failShares, " "))
	return code
}
