package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	cs "chainsplit"
)

const (
	// setups is how many times a run sets the workload up; setup_s is
	// their median.
	setups = 3
	// recoveries is how many close-and-reopen cycles a run times;
	// recovery_s is their median.
	recoveries = 3
	// replays bounds the writes re-applied to the standalone databases
	// that separate core.apply_ms from wal.log_ms.
	replays    = 96
	ackTimeout = 10 * time.Second
)

// clusterConfig is the deployment every workload runs on: a durable
// two-node cluster (leader plus one follower) with the default flush
// policy (fsync per mutation) and the default snapshot cadence.
func clusterConfig(dir string) cs.Config {
	return cs.Config{Dir: dir, Cluster: &cs.ClusterConfig{Replicas: 2}}
}

type tally struct{ attempted, failed int }

// writeLog collects the acknowledged writes made on one cluster.
type writeLog struct {
	writeMs, visibleMs []float64
	ops                []*op
	facts              int
}

// runner executes one workload run and collects its measurements.
type runner struct {
	// sp drives the measured cluster; build makes another copy of it,
	// from the same seed, for the recovery cluster (see run).
	sp    *spec
	build func() *spec
	root  string
	qopts []cs.Option
	log   io.Writer

	ops   map[string]*tally
	wrong int

	setupS       []float64
	heapMB       float64
	loopMs       []float64
	classMs      map[string][]float64
	loopSecs     float64
	recoveryS    []float64
	bytesPerFact float64
	// writes is the log the write metrics come from: the timed loop's
	// writes, or the recovery cluster's where the loop only reads. w is
	// the log write appends to.
	writes, loopWrites, recWrites writeLog
	w                             *writeLog

	// layers is non-nil on a traced run.
	layers *layers
}

func newRunner(build func() *spec, root string, trace bool, log io.Writer) *runner {
	r := &runner{sp: build(), build: build, root: root, log: log, ops: map[string]*tally{}, classMs: map[string][]float64{}}
	if trace {
		r.layers = newLayers()
		r.qopts = []cs.Option{cs.WithTrace()}
	}
	return r
}

// count records one attempted operation of kind and whether it failed.
func (r *runner) count(kind string, err error) {
	t := r.ops[kind]
	if t == nil {
		t = &tally{}
		r.ops[kind] = t
	}
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(r.log, "FAILED %s: %v\n", kind, err)
	}
}

// query runs one routed query and checks its answers.
func (r *runner) query(c *cs.Cluster, o *op) *cs.Result {
	res, err := c.Query(o.query, r.qopts...)
	r.count("query", err)
	if err != nil {
		return nil
	}
	r.checkAnswer(o, res)
	return res
}

func (r *runner) checkAnswer(o *op, res *cs.Result) {
	if err := o.check(res); err != nil {
		r.wrong++
		fmt.Fprintf(r.log, "WRONG %s: %v\n", o.query, err)
	}
}

// write applies one write on the leader and waits until the follower
// has applied it; it returns the generation the write published.
func (r *runner) write(c *cs.Cluster, o *op) (uint64, bool) {
	start := time.Now()
	var err error
	if o.src != "" {
		err = c.Exec(o.src)
	} else {
		err = c.LoadFacts(o.pred, o.tuples)
	}
	wrote := time.Since(start)
	r.count("write", err)
	if err != nil {
		return 0, false
	}
	gen := c.Generation()
	if !c.WaitReplicated(gen, 0, ackTimeout) {
		r.count("ack", fmt.Errorf("generation %d not replicated within %v", gen, ackTimeout))
		return gen, false
	}
	r.count("ack", nil)
	r.w.writeMs = append(r.w.writeMs, ms(wrote))
	r.w.visibleMs = append(r.w.visibleMs, ms(time.Since(start)))
	r.w.ops = append(r.w.ops, o)
	r.w.facts += o.nfacts
	return gen, true
}

// round runs ops in order. timed marks the timed loop, whose queries
// feed the query metrics.
func (r *runner) round(c *cs.Cluster, ops []*op, timed bool) {
	var gen uint64
	for _, o := range ops {
		if o.isWrite() {
			gen, _ = r.write(c, o)
			continue
		}
		res := r.query(c, o)
		if res == nil {
			continue
		}
		if timed {
			r.loopMs = append(r.loopMs, ms(res.Duration))
			r.classMs[o.class] = append(r.classMs[o.class], ms(res.Duration))
			if r.layers != nil {
				r.layers.observe(res)
			}
		}
		if gen != 0 {
			// The first read after an acknowledged write must see it.
			if res.Metrics.Generation != gen {
				r.wrong++
				fmt.Fprintf(r.log, "WRONG %s: read generation %d after acknowledged write %d\n",
					o.query, res.Metrics.Generation, gen)
			}
			if r.layers != nil {
				r.freshRead(c, o, res)
			}
			gen = 0
		}
	}
}

// freshRead repeats the first read on a new generation, routed and on
// the leader, to separate the first-read cost and the routing cost.
func (r *runner) freshRead(c *cs.Cluster, o *op, first *cs.Result) {
	again := r.query(c, o)
	var lead *cs.Result
	for i := 0; i < 2; i++ {
		res, err := c.Leader().Query(o.query, r.qopts...)
		r.count("query", err)
		if err != nil {
			return
		}
		r.checkAnswer(o, res)
		lead = res
	}
	if again != nil {
		r.layers.firstRead = append(r.layers.firstRead, ms(first.Duration-again.Duration))
		r.layers.route = append(r.layers.route, ms(again.Duration-lead.Duration))
	}
}

// setup opens a cluster in dir, loads the rules and the EDB, waits for
// the follower, and runs one warm-up query of every class. It records
// the time taken in setup_s.
func (r *runner) setup(sp *spec, dir string) (*cs.Cluster, error) {
	start := time.Now()
	c, err := cs.OpenCluster(clusterConfig(dir))
	r.count("open", err)
	if err != nil {
		return nil, err
	}
	err = c.Exec(rules)
	r.count("load", err)
	for _, rel := range sp.rels {
		if err == nil {
			err = c.LoadFacts(rel.pred, rel.tuples)
			r.count("load", err)
		}
	}
	if err == nil && !c.WaitReplicated(c.Generation(), 0, time.Minute) {
		err = errors.New("EDB load not replicated")
		r.count("ack", err)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	for _, o := range sp.warm {
		r.query(c, o)
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return c, nil
}

// run performs the whole run:
//
//  1. sets the measured cluster up twice (the first copy is closed) and
//     records the live heap;
//  2. sets up a recovery cluster (setup_s is the median of all three
//     set-ups);
//  3. runs the timed loop for dur of loop time. Spread evenly over it
//     run the recovery cluster's fixed write rounds, its close, and its
//     timed reopenings (recovery_s), so that they sample the same
//     stretch of time as the loop's queries, and the recovered history
//     is the same on every run, whatever the loop's speed;
//  4. closes the measured cluster (reopening it once to check a loop
//     with writes), fscks every node and measures the recovery leader's
//     bytes per fact.
func (r *runner) run(dur time.Duration) error {
	var c *cs.Cluster
	var dir string
	var err error
	for i := 1; i < setups; i++ {
		if c != nil {
			c.Close()
			os.RemoveAll(dir)
		}
		dir = filepath.Join(r.root, fmt.Sprintf("setup%d", i))
		if c, err = r.setup(r.sp, dir); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	r.heapMB = float64(mem.HeapAlloc) / (1 << 20)

	rec := r.build()
	recDir := filepath.Join(r.root, "recovery")
	rc, err := r.setup(rec, recDir)
	if err != nil {
		c.Close()
		return fmt.Errorf("set-up: %w", err)
	}
	var recGen uint64
	var tasks []func() error
	for i := 0; i < rec.writeRounds; i++ {
		tasks = append(tasks, func() error {
			r.w = &r.recWrites
			r.round(rc, rec.writeRound(i), false)
			return nil
		})
	}
	tasks = append(tasks, func() error {
		recGen = rc.Generation()
		return rc.Close()
	})
	for i := 0; i < recoveries; i++ {
		tasks = append(tasks, func() error {
			start := time.Now()
			err := r.recover(recDir, lastReadYourWrite(r.recWrites.ops), recGen)
			r.recoveryS = append(r.recoveryS, time.Since(start).Seconds())
			return err
		})
	}

	before := counters()
	runtime.ReadMemStats(&mem)
	start := time.Now()
	var side time.Duration
	next := 0
	for i := 0; time.Since(start)-side < dur; i++ {
		r.w = &r.loopWrites
		if r.sp.readRound != nil {
			r.round(c, r.sp.readRound(i), true)
		} else {
			r.round(c, r.sp.writeRound(i), true)
		}
		for next < len(tasks) && time.Since(start)-side >= time.Duration(next)*dur/time.Duration(len(tasks)) {
			t := time.Now()
			err = r.sideTask(tasks[next])
			side += time.Since(t)
			next++
			if err != nil {
				rc.Close()
				c.Close()
				return err
			}
		}
	}
	r.loopSecs = (time.Since(start) - side).Seconds()
	if r.layers != nil {
		r.layers.memDelta(mem, len(r.loopMs))
		r.layers.walDelta(before, counters(), &r.loopWrites, &r.recWrites)
		r.layers.failovers = float64(c.Failovers())
	}
	loopGen := c.Generation()
	if err := c.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	r.writes = r.loopWrites
	if len(r.loopWrites.ops) > 0 {
		if err := r.recover(dir, lastReadYourWrite(r.loopWrites.ops), loopGen); err != nil {
			return err
		}
	} else {
		r.writes = r.recWrites
	}
	if len(r.writes.ops) == 0 {
		return errors.New("no write was acknowledged")
	}
	for _, d := range []string{dir, recDir} {
		for _, node := range []string{"node0", "node1"} {
			report, ok, err := cs.Fsck(filepath.Join(d, node))
			if err == nil && !ok {
				err = fmt.Errorf("fsck %s: %s", node, report)
			}
			r.count("fsck", err)
		}
	}
	// node0 leads: it wins the first election on the lowest-ID tie
	// break, and no failover happens in a run (cluster.failovers).
	leaderDir := filepath.Join(recDir, "node0")
	size, err := dirBytes(leaderDir)
	if err != nil {
		return err
	}
	r.bytesPerFact = float64(size) / float64(rec.nfacts+r.recWrites.facts)
	if r.layers != nil {
		return r.layers.standalone(r, leaderDir)
	}
	return nil
}

// sideTask runs one task interleaved with the timed loop; a traced run
// keeps its allocations out of the loop's per-query figures.
func (r *runner) sideTask(task func() error) error {
	if r.layers == nil {
		return task()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := task()
	runtime.ReadMemStats(&after)
	r.layers.sideAlloc += after.TotalAlloc - before.TotalAlloc
	r.layers.sideGC += after.NumGC - before.NumGC
	return err
}

// recover opens the cluster in dir, checks it, and closes it again: the
// recovered generation is the last acknowledged one, and a routed read
// at it sees the last write.
func (r *runner) recover(dir string, o *op, gen uint64) error {
	c, err := cs.OpenCluster(clusterConfig(dir))
	r.count("open", err)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if got := c.Generation(); got != gen {
		err = fmt.Errorf("recovered generation %d, last acknowledged %d", got, gen)
	} else if !c.WaitReplicated(gen, 0, ackTimeout) {
		err = fmt.Errorf("follower did not recover generation %d", gen)
	}
	if err == nil {
		var res *cs.Result
		if res, err = c.Query(o.query, r.qopts...); err == nil {
			r.checkAnswer(o, res)
			if res.Metrics.Generation != gen {
				err = fmt.Errorf("recovery read at generation %d, want %d", res.Metrics.Generation, gen)
			}
		}
	}
	r.count("recovery_read", err)
	if cerr := c.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	return err
}

// lastReadYourWrite returns the read that followed the last write
// carrying one; no later write changes its answer.
func lastReadYourWrite(written []*op) *op {
	for i := len(written) - 1; i >= 0; i-- {
		if written[i].reads != nil {
			return written[i].reads
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
