package main

// Per-layer measurements of a traced run, all taken from outside the
// engine: the query trace (WithTrace), Result.Metrics, the process-wide
// counters of MetricsSnapshot, runtime.MemStats, and standalone
// databases that replay the run's writes.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	cs "chainsplit"
)

type layers struct {
	api, admission, plan, answer []float64
	// prepare, eval and query are keyed by engine: magic, counting,
	// topdown (and seminaive for eval).
	prepare, eval, query map[string][]float64

	rounds, matches, derived, answers, seminaiveN float64
	magicTuples, magicN                           float64
	contexts, countingN                           float64
	steps, tableHits, topdownN                    float64

	allocKBPerQuery, gcPerQuery float64
	// sideAlloc and sideGC are what tasks interleaved with the loop
	// allocated and collected; memDelta leaves them out.
	sideAlloc uint64
	sideGC    uint32

	firstRead, route []float64

	walBytesPerWrite, walSnapshots, checkpointMs         float64
	replicaApplyMs, replicaBytesPerWrite, replicaRecords float64
	applyMs, logMs, recoverS, replayedRecords, failovers float64
	writeP90Ms, visibleP90Ms                             float64
}

func newLayers() *layers {
	return &layers{prepare: map[string][]float64{}, eval: map[string][]float64{}, query: map[string][]float64{}}
}

// engine names the layer that evaluated a result.
func engine(s cs.Strategy) string {
	name := s.String()
	switch {
	case strings.HasPrefix(name, "magic"):
		return "magic"
	case strings.HasPrefix(name, "buffered"):
		return "counting"
	case strings.HasPrefix(name, "topdown"):
		return "topdown"
	}
	return "seminaive"
}

// observe splits one traced query into its layers. The trace holds a
// query span; a plan point ends planning; the engines then emit round
// and merge points (semi-naive, under magic too), level and answer
// points (buffered) or round points per pass (top-down).
func (l *layers) observe(res *cs.Result) {
	eng := engine(res.Strategy)
	m := res.Metrics
	l.api = append(l.api, ms(res.Duration-m.Duration))
	l.admission = append(l.admission, ms(m.AdmissionWait))
	l.query[eng] = append(l.query[eng], ms(res.Duration))
	switch eng {
	case "magic", "seminaive":
		l.rounds += float64(m.Iterations)
		l.matches += float64(m.Matches)
		l.derived += float64(m.DerivedTuples)
		l.answers += float64(len(res.Rows))
		l.seminaiveN++
		if eng == "magic" {
			l.magicTuples += float64(m.MagicTuples)
			l.magicN++
		}
	case "counting":
		l.contexts += float64(m.Contexts)
		l.countingN++
	case "topdown":
		l.steps += float64(m.Steps)
		l.tableHits += float64(m.TableHits)
		l.topdownN++
	}

	const none = time.Duration(-1)
	begin, plan, end := none, none, none
	firstRound, lastMerge, firstLevel, lastAnswer, firstAfterPlan, lastEval := none, none, none, none, none, none
	for _, ev := range m.TraceEvents {
		phase, kind := ev.Phase.String(), ev.Kind.String()
		switch {
		case phase == "query" && kind == "begin":
			begin = ev.At
		case phase == "query" && kind == "end":
			end = ev.At
		case phase == "plan":
			plan = ev.At
		case plan != none:
			if firstAfterPlan == none {
				firstAfterPlan = ev.At
			}
			switch phase {
			case "round":
				if firstRound == none {
					firstRound = ev.At
				}
			case "merge":
				lastMerge = ev.At
			case "level":
				if firstLevel == none {
					firstLevel = ev.At
				}
			case "answer":
				lastAnswer = ev.At
			}
			switch phase {
			case "round", "merge", "level", "answer":
				lastEval = ev.At
			}
		}
	}
	span := func(dst map[string][]float64, key string, from, to time.Duration) {
		if from != none && to != none {
			dst[key] = append(dst[key], ms(to-from))
		}
	}
	if begin == none || plan == none || end == none {
		return
	}
	l.plan = append(l.plan, ms(plan-begin))
	switch eng {
	case "magic", "seminaive":
		span(l.prepare, eng, plan, firstRound)
		span(l.eval, "seminaive", firstRound, lastMerge)
	case "counting":
		span(l.prepare, eng, plan, firstLevel)
		span(l.eval, eng, firstLevel, lastAnswer)
	case "topdown":
		span(l.prepare, eng, plan, firstAfterPlan)
		span(l.eval, eng, firstAfterPlan, end)
	}
	if lastEval != none {
		l.answer = append(l.answer, ms(end-lastEval))
	}
}

// memDelta records allocation and GC cycles per loop query since
// before, leaving out the interleaved tasks.
func (l *layers) memDelta(before runtime.MemStats, queries int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(max(queries, 1))
	l.allocKBPerQuery = float64(after.TotalAlloc-before.TotalAlloc-l.sideAlloc) / 1024 / n
	l.gcPerQuery = float64(after.NumGC-before.NumGC-l.sideGC) / n
}

// walDelta records the log and replication counters over the timed
// loop, per acknowledged write of both clusters. Both nodes log every
// write, so the WAL figures cover the leader's log and the follower's
// copy.
func (l *layers) walDelta(before, after map[string]int64, logs ...*writeLog) {
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	writes := 0
	for _, w := range logs {
		writes += len(w.ops)
	}
	n := float64(max(writes, 1))
	l.walBytesPerWrite = d("chainsplit_wal_bytes_total") / n
	l.walSnapshots = d("chainsplit_wal_snapshots_total")
	l.replicaBytesPerWrite = d("chainsplit_replica_bytes_shipped_total") / n
	l.replicaRecords = d("chainsplit_replica_records_applied_total")
}

// writeTail records the write tail and the median time from a write's
// return to its acknowledgement. The p90s of writes spread across runs
// on a shared host by more than any end-to-end bound allows, so they are
// reported here, unbounded.
func (l *layers) writeTail(w writeLog) {
	lag := make([]float64, len(w.writeMs))
	for i := range lag {
		lag[i] = w.visibleMs[i] - w.writeMs[i]
	}
	l.replicaApplyMs = median(lag)
	l.writeP90Ms = quantile(w.writeMs, 0.9)
	l.visibleP90Ms = quantile(w.visibleMs, 0.9)
}

// standalone times the run's writes on an in-memory database and on a
// standalone durable one holding the same EDB (core.apply_ms and the
// logging cost on top of it), then recovers a copy of the leader's
// directory (wal.recover_s) and checkpoints it: the leader's state, in a
// database that is not serving (wal.checkpoint_ms).
func (l *layers) standalone(r *runner, leaderDir string) error {
	mem := cs.Open()
	apply, err := replay(r, mem)
	mem.Close()
	if err != nil {
		return err
	}
	dir := filepath.Join(r.root, "standalone")
	durable, err := cs.OpenDir(dir)
	r.count("open", err)
	if err != nil {
		return err
	}
	logged, err := replay(r, durable)
	if cerr := durable.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.applyMs = median(apply)
	l.logMs = median(logged) - l.applyMs

	cp := filepath.Join(r.root, "recover")
	if err := copyDir(leaderDir, cp); err != nil {
		return err
	}
	before := counters()
	start := time.Now()
	db, err := cs.OpenDir(cp)
	r.count("open", err)
	if err != nil {
		return err
	}
	l.recoverS = time.Since(start).Seconds()
	l.replayedRecords = float64(counters()["chainsplit_wal_replayed_records_total"] - before["chainsplit_wal_replayed_records_total"])
	start = time.Now()
	err = db.Checkpoint()
	l.checkpointMs = ms(time.Since(start))
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return err
}

// replay loads the EDB into db and times the run's first writes on it.
func replay(r *runner, db *cs.DB) ([]float64, error) {
	err := db.Exec(rules)
	r.count("load", err)
	for _, rel := range r.sp.rels {
		if err == nil {
			err = db.LoadFacts(rel.pred, rel.tuples)
			r.count("load", err)
		}
	}
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, o := range r.writes.ops[:min(len(r.writes.ops), replays)] {
		start := time.Now()
		if o.src != "" {
			err = db.Exec(o.src)
		} else {
			err = db.LoadFacts(o.pred, o.tuples)
		}
		r.count("write", err)
		if err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// metrics returns the per-layer metrics, each with its unit.
func (l *layers) metrics() []metric {
	per := func(sum, n float64) float64 {
		if n == 0 {
			return 0
		}
		return sum / n
	}
	return []metric{
		{"chainsplit.api_ms", "ms", median(l.api)},
		{"core.plan_ms", "ms", median(l.plan)},
		{"magic.prepare_ms", "ms", median(l.prepare["magic"])},
		{"counting.prepare_ms", "ms", median(l.prepare["counting"])},
		{"topdown.prepare_ms", "ms", median(l.prepare["topdown"])},
		{"seminaive.eval_ms", "ms", median(l.eval["seminaive"])},
		{"counting.eval_ms", "ms", median(l.eval["counting"])},
		{"topdown.eval_ms", "ms", median(l.eval["topdown"])},
		{"core.answer_ms", "ms", median(l.answer)},
		{"magic.query_ms", "ms", median(l.query["magic"])},
		{"counting.query_ms", "ms", median(l.query["counting"])},
		{"topdown.query_ms", "ms", median(l.query["topdown"])},
		{"seminaive.rounds_per_query", "count/query", per(l.rounds, l.seminaiveN)},
		{"seminaive.matches_per_query", "count/query", per(l.matches, l.seminaiveN)},
		{"seminaive.derived_per_answer", "count/answer", per(l.derived, l.answers)},
		{"magic.magic_tuples_per_query", "count/query", per(l.magicTuples, l.magicN)},
		{"counting.contexts_per_query", "count/query", per(l.contexts, l.countingN)},
		{"topdown.steps_per_query", "count/query", per(l.steps, l.topdownN)},
		{"topdown.table_hits_per_query", "count/query", per(l.tableHits, l.topdownN)},
		{"runtime.alloc_kb_per_query", "KB/query", l.allocKBPerQuery},
		{"runtime.gc_cycles_per_query", "count/query", l.gcPerQuery},
		{"write_p90_ms", "ms", l.writeP90Ms},
		{"visible_p90_ms", "ms", l.visibleP90Ms},
		{"core.apply_ms", "ms", l.applyMs},
		{"wal.log_ms", "ms", l.logMs},
		{"wal.bytes_per_write", "bytes/write", l.walBytesPerWrite},
		{"wal.snapshots", "count", l.walSnapshots},
		{"wal.checkpoint_ms", "ms", l.checkpointMs},
		{"replica.apply_ms", "ms", l.replicaApplyMs},
		{"replica.bytes_per_write", "bytes/write", l.replicaBytesPerWrite},
		{"replica.records_applied", "count", l.replicaRecords},
		{"cluster.route_ms", "ms", median(l.route)},
		{"core.first_read_ms", "ms", median(l.firstRead)},
		{"wal.recover_s", "s", l.recoverS},
		{"wal.replayed_records", "count", l.replayedRecords},
		{"cluster.failovers", "count", l.failovers},
	}
}

func (m metric) String() string { return fmt.Sprintf("%-30s %14.4f %s", m.name, m.value, m.unit) }
