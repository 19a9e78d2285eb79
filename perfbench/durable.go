package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hwstar"
)

const (
	durTables = 16
	durRows   = 1 << 18 // 4 MiB per table, 64 MiB in all
	durDomain = 1 << 20
	// durRestartEvery is the number of commits between restarts.
	durRestartEvery = 50
)

func durName(t int) string { return fmt.Sprintf("t%02d", t) }

// durAll is a filter range on the aggregate column that holds every version
// of every row.
const durAll = 1 << 62

// version returns version v of table t: the table's base columns with v
// added to every aggregate value, so each version differs from the one
// before in every row. The filter column is shared by all versions.
// Building a version is one pass over a column, and its answers follow from
// the base oracle (see answer), so the writer spends its time in the
// program, not in generating and sorting tables.
func (d *durable) version(t int, v int64) [][]int64 {
	base := d.base[t]
	agg := make([]int64, len(base[1]))
	for i, a := range base[1] {
		agg[i] = a + v
	}
	return [][]int64{base[0], agg}
}

// answer is the oracle's answer to a range query on version v of table t.
// A range on the filter column sums the base aggregate plus v per row in
// range. The full range on the aggregate column sums the filter column,
// which no version changes.
func (d *durable) answer(t int, q hwstar.ScanQuery, v int64) int64 {
	o := d.oracles[t]
	if q.FilterCol == 1 {
		return d.keySums[t]
	}
	return o.sum(q.Lo, q.Hi) + v*o.count(q.Lo, q.Hi)
}

// durable is the durable-churn workload's state: a Server over a Store,
// swapped by the writer at every restart, and per table the version the
// writer has started to register and the version whose Register returned.
type durable struct {
	e    *env
	dir  string
	hot  int64
	opts hwstar.ServerOptions

	mu  sync.RWMutex // held exclusively while the writer restarts the stack
	srv *hwstar.Server
	st  *hwstar.Store

	started, done [durTables]atomic.Int64
	base          [durTables][][]int64 // version 0 of each table
	oracles       [durTables]*oracle   // over version 0
	keySums       [durTables]int64     // sum of each table's filter column

	checkpointing atomic.Bool
	commits       int // by the writer, which restarts the stack every durRestartEvery

	smu                                   sync.Mutex
	commit, checkpoint                    []float64 // ms
	recovery, replay, restart, coldLoad   []float64 // ms
	readDuring, readIdle                  []float64 // ms
	bytesWritten, bytesUser, coldLoads    int64
	queueWaitP50, batchSum, batchPasses   float64
	admitted, rejected, pruned, allBlocks int64
}

// open builds the stack over the store in d.dir and waits for its replay.
func (d *durable) open(ctx context.Context) (recovery, replay time.Duration, err error) {
	t0 := time.Now()
	st, err := hwstar.OpenStore(hwstar.StoreOptions{Dir: d.dir, Machine: d.e.m, HotBytes: d.hot})
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	o := d.opts
	o.Store = st
	srv, err := hwstar.NewServer(d.e.m, o)
	if err != nil {
		st.Close()
		return 0, 0, err
	}
	if err := srv.WaitRecovered(ctx); err != nil {
		srv.Close()
		st.Close()
		return 0, 0, err
	}
	d.srv, d.st = srv, st
	return t1.Sub(t0), time.Since(t1), nil
}

// close shuts the stack down (the Server's Close flushes a final
// checkpoint), keeping its serve-layer counters.
func (d *durable) close() error {
	d.collect()
	err := d.srv.Close()
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// collect adds the current stack's serve-layer and cold-load counters to
// the workload's.
func (d *durable) collect() {
	reg := d.srv.Metrics()
	h := d.srv.Health()
	bs := reg.Histogram("serve.batch_size")
	d.smu.Lock()
	d.queueWaitP50 = reg.Histogram("serve.queue_wait_ms").Quantile(0.5)
	d.batchSum += bs.Sum()
	d.batchPasses += float64(bs.Count())
	d.admitted += h.Admitted
	d.rejected += h.Rejected
	d.pruned += h.VecBlocksPruned
	d.allBlocks += h.VecBlocksPruned + h.VecFastSums + h.VecBlocksScanned
	d.coldLoads += d.st.ColdLoads()
	d.smu.Unlock()
}

// scanT runs q on table t and checks the answer against every version the
// table could hold meanwhile: from lo, the last version registered before
// the scan (whose oracle the caller holds), to the last version the writer
// started registering by the time the answer arrived. The Submit is the
// span serve.submit of trace id.
func (d *durable) scanT(ctx context.Context, t int, q hwstar.ScanQuery, lo int64, id string) (hwstar.Response, error) {
	start := time.Now()
	resp, err := d.srv.Submit(ctx, hwstar.Request{Op: hwstar.OpScan, Table: durName(t), Query: q})
	d.e.rec.add(id, "serve.submit", "request", start, time.Now())
	if err != nil {
		return resp, err
	}
	hi := d.started[t].Load()
	for v := lo; v <= hi; v++ {
		if d.answer(t, q, v) == resp.Sum {
			return resp, nil
		}
	}
	return resp, fmt.Errorf("table %s [%d,%d]: sum %d matches no version in %d..%d: %w",
		durName(t), q.Lo, q.Hi, resp.Sum, lo, hi, errWrong)
}

// read is the reader's operation: a range scan of a random table, checked
// against every version the table could hold while the scan ran.
func (d *durable) read(r *rand.Rand) op {
	return func(ctx context.Context, _, _ int, id string) (float64, error) {
		t := r.Intn(durTables)
		w := int64(durDomain / 100)
		if r.Float64() < 0.25 {
			w = durDomain / 2
		}
		a := r.Int63n(durDomain - w + 1)
		q := hwstar.ScanQuery{FilterCol: 0, Lo: a, Hi: a + w - 1, AggCol: 1}
		d.mu.RLock()
		defer d.mu.RUnlock()
		lo := d.done[t].Load()
		inCP := d.checkpointing.Load()
		start := time.Now()
		resp, err := d.scanT(ctx, t, q, lo, id)
		end := time.Now()
		if err != nil {
			return 0, err
		}
		d.smu.Lock()
		if inCP || d.checkpointing.Load() {
			d.readDuring = append(d.readDuring, ms(end.Sub(start)))
		} else {
			d.readIdle = append(d.readIdle, ms(end.Sub(start)))
		}
		d.smu.Unlock()
		return resp.SimCycles, nil
	}
}

// writer replaces random tables with their next version and commits each
// with a Checkpoint until deadline, restarting the stack every
// durRestartEvery commits when restarts is set. Commits and restarts count
// as operations in t.
func (d *durable) writer(ctx context.Context, r *rand.Rand, deadline time.Time, restarts bool, t *tally, tag string) {
	for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
		tbl := r.Intn(durTables)
		v := d.started[tbl].Load() + 1
		cols := d.version(tbl, v)
		id := traceID(d.e.rec, tag, 0, k)

		d.started[tbl].Store(v)
		t0 := time.Now()
		err := d.srv.Register(durName(tbl), cols)
		if err != nil {
			d.started[tbl].Store(v - 1)
		} else {
			d.done[tbl].Store(v)
		}
		t1 := time.Now()
		var cp hwstar.CheckpointStats
		if err == nil {
			d.checkpointing.Store(true)
			cp, err = d.srv.Checkpoint(ctx)
			d.checkpointing.Store(false)
		}
		t2 := time.Now()
		d.e.rec.add(id, "commit", "", t0, t2)
		d.e.rec.add(id, "serve.register", "commit", t0, t1)
		d.e.rec.add(id, "store.checkpoint", "commit", t1, t2)
		t.record(0, 0, err)
		if err != nil {
			continue
		}
		d.smu.Lock()
		d.commit = append(d.commit, ms(t2.Sub(t0)))
		d.checkpoint = append(d.checkpoint, ms(t2.Sub(t1)))
		d.bytesWritten += cp.Bytes
		d.bytesUser += userBytes(cols)
		d.smu.Unlock()
		d.commits++
		if restarts && d.commits%durRestartEvery == 0 {
			t.record(0, 0, d.restartStack(ctx, traceID(d.e.rec, tag+"r", 0, k)))
		}
	}
}

// restartStack closes the Server and Store, reopens them from disk, and
// verifies every table's last committed version through the new Server.
// restart_ms runs from store.Open to the first correct answer; the first
// touch of each cold table is a cold load.
func (d *durable) restartStack(ctx context.Context, id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.close(); err != nil {
		return err
	}
	t0 := time.Now()
	recovery, replay, err := d.open(ctx)
	if err != nil {
		return err
	}
	d.e.rec.add(id, "store.open", "restart", t0, t0.Add(recovery))
	d.e.rec.add(id, "serve.replay", "restart", t0.Add(recovery), t0.Add(recovery+replay))
	tv := time.Now()
	var first time.Duration
	var cold []float64
	for t := 0; t < durTables; t++ {
		isCold := d.st.Tier(durName(t)) == "cold"
		v := d.done[t].Load()
		for _, q := range []hwstar.ScanQuery{
			{FilterCol: 0, Lo: 0, Hi: durDomain - 1, AggCol: 1},
			{FilterCol: 1, Lo: 0, Hi: durAll, AggCol: 0},
		} {
			s := time.Now()
			if _, err := d.scanT(ctx, t, q, v, ""); err != nil {
				return fmt.Errorf("after restart: %w", err)
			}
			if first == 0 {
				first = time.Since(t0)
			}
			if isCold {
				cold = append(cold, ms(time.Since(s)))
				isCold = false
			}
		}
	}
	d.e.rec.add(id, "verify", "restart", tv, time.Now())
	d.e.rec.add(id, "restart", "", t0, time.Now())
	d.smu.Lock()
	d.recovery = append(d.recovery, ms(recovery))
	d.replay = append(d.replay, ms(replay))
	d.restart = append(d.restart, ms(first))
	d.coldLoad = append(d.coldLoad, cold...)
	d.smu.Unlock()
	return nil
}

// phase runs the reader's closed loop beside the writer for dur.
func (d *durable) phase(ctx context.Context, dur time.Duration, rr, wr *rand.Rand, rec *recorder, tag string) (reads, writes *tally) {
	writes = &tally{}
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.writer(ctx, wr, deadline, true, writes, tag+"w")
	}()
	reads = closedLoop(ctx, 1, dur, rec, tag, "request", d.read(rr))
	wg.Wait()
	return reads, writes
}

func runDurable(ctx context.Context, e *env) (*report, error) {
	d := &durable{e: e, hot: durTables * durRows * 2 * 8 / 4}
	for t := range d.base {
		d.base[t] = uniformCols(newRand(e.seed, streamVersion+uint64(t)), durRows, durDomain)
		d.oracles[t] = newOracle(d.base[t][0], d.base[t][1])
		for _, k := range d.base[t][0] {
			d.keySums[t] += k
		}
	}
	rep := &report{}

	setup := 0
	_, setupS, err := timedSetup(func() (*durable, error) {
		d.dir = filepath.Join(e.dir, fmt.Sprintf("store-%d", setup))
		setup++
		if _, _, err := d.open(ctx); err != nil {
			return nil, err
		}
		for t := range d.base {
			if err := d.srv.Register(durName(t), d.base[t]); err != nil {
				d.close()
				return nil, err
			}
		}
		if _, err := d.srv.Checkpoint(ctx); err != nil {
			d.close()
			return nil, err
		}
		return d, nil
	}, func(d *durable) {
		d.close()
		os.RemoveAll(d.dir)
	})
	if err != nil {
		return nil, err
	}
	// The setups' counters are not the workload's.
	d.coldLoads, d.batchSum, d.batchPasses = 0, 0, 0
	d.admitted, d.rejected, d.pruned, d.allBlocks = 0, 0, 0, 0
	defer d.close()

	rr, wr := newRand(e.seed, streamQueries), newRand(e.seed, streamWriter)
	if !e.traced {
		main := windowed(e.seconds, maxWindows, func(dur time.Duration) *tally {
			reads, writes := d.phase(ctx, dur, rr, wr, nil, "")
			rep.add(writes)
			return reads
		})
		setE2E(rep, setupS, main)
		return rep, nil
	}

	seg := 0
	untraced, traced := interleave(rep, e.rec, e.seconds, func(dur time.Duration, rec *recorder) *tally {
		seg++
		reads, writes := d.phase(ctx, dur, rr, wr, rec, fmt.Sprintf("s%d-", seg))
		rep.add(writes)
		return reads
	})
	lt := e.rec.selfTimes("request")
	rep.set("serve.submit_ms_p50", median(lt.of("serve.submit")), "ms")
	rep.set("serve.submit_ms_p99", quantile(lt.of("serve.submit"), 0.99), "ms")
	d.collect()
	d.smu.Lock()
	rep.set("serve.queue_wait_ms_p50", d.queueWaitP50, "ms")
	rep.set("serve.batch_size_mean", safeDiv(d.batchSum, d.batchPasses), "queries")
	rep.set("serve.rejected_ratio", safeDiv(float64(d.rejected), float64(d.admitted+d.rejected)), "ratio")
	rep.set("serve.vec_prune_ratio", safeDiv(float64(d.pruned), float64(d.allBlocks)), "ratio")
	rep.set("store.checkpoint_ms_p50", median(d.checkpoint), "ms")
	rep.set("store.write_amp", safeDiv(float64(d.bytesWritten), float64(d.bytesUser)), "ratio")
	rep.set("store.recovery_ms_p50", median(d.recovery), "ms")
	rep.set("store.replay_ms_p50", median(d.replay), "ms")
	rep.set("store.cold_loads", float64(d.coldLoads), "count")
	rep.set("store.cold_load_ms_p50", median(d.coldLoad), "ms")
	// The writer checkpoints almost back to back, so few reads may fall
	// outside a checkpoint; with fewer than 100 on either side the store
	// probe measures the stall instead.
	if len(d.readDuring) >= 100 && len(d.readIdle) >= 100 {
		rep.set("store.checkpoint_stall_ratio", quantile(d.readDuring, 0.99)/quantile(d.readIdle, 0.99), "ratio")
	}
	rep.set("commit_p50_ms", median(d.commit), "ms")
	rep.set("restart_ms", median(d.restart), "ms")
	d.smu.Unlock()
	n, err := dirBytes(d.dir)
	if err != nil {
		return nil, err
	}
	rep.set("space_amp", float64(n)/float64(durTables*durRows*2*8), "ratio")
	setTraceSummary(rep, e.rec, lt, untraced, traced, "serve.submit")
	lr := newRand(e.seed, streamLadder)
	capQPS, err := capacity(100, 180, rep, func(rate float64, dur time.Duration) (*tally, int) {
		writes := &tally{}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.writer(ctx, wr, time.Now().Add(dur), false, writes, "")
		}()
		t, backlog := openLoop(ctx, rate, dur, 1, lr, nil, "", "request", d.read(rr))
		wg.Wait()
		rep.add(writes)
		return t, backlog
	})
	if err != nil {
		return nil, err
	}
	rep.set("capacity_qps", capQPS, "1/s")

	// The probes run on table 0 as last committed.
	cols := d.version(0, d.done[0].Load())
	o := newOracle(cols[0], cols[1])
	qs := rangeQueries(newRand(e.seed, streamProbe), o, 4096, 0.01, 0.5, 0.25)
	return rep, layerProbes(ctx, e, rep, cols, qs, d.opts)
}
