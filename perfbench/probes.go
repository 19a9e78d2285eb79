package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hwstar"
	"hwstar/internal/compress"
	"hwstar/internal/hw"
	"hwstar/internal/scan"
	"hwstar/internal/vecexec"
)

// setDefault sets a metric only if the workload has not measured it itself:
// probes fill in the layers a workload does not drive.
func (r *report) setDefault(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.set(name, v, unit)
	}
}

func (r *report) has(name string) bool {
	_, ok := r.metrics[name]
	return ok
}

// probeBudget is how long each kernel probe repeats its call.
const probeBudget = 150 * time.Millisecond

// repeat calls fn until probeBudget has passed and at least 3 times, and
// returns the per-call wall times in ns.
func repeat(fn func(i int) error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < probeBudget; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds()))
	}
	return out, nil
}

func queriesOf(qs []scanQ) []scan.Query {
	out := make([]scan.Query, len(qs))
	for i, q := range qs {
		out[i] = q.q
	}
	return out
}

func checkAll(what string, got []int64, qs []scanQ) error {
	for i, q := range qs {
		if err := checkSum(what, got[i], q); err != nil {
			return err
		}
	}
	return nil
}

// vecCols is a two-column table encoded the way a vectorized Server holds
// it: FOR/RLE blocks of the filter column f and the aggregate column a, and
// the sum of each block of a.
type vecCols struct {
	f, a *compress.Compressed
	sums []int64
}

func encodeVec(cols [][]int64) vecCols {
	v := vecCols{f: compress.Encode(cols[0]), a: compress.Encode(cols[1])}
	var buf [compress.BlockValues]int64
	v.sums = make([]int64, v.a.NumBlocks())
	for blk := range v.sums {
		v.sums[blk] = vecexec.SumI64(v.a.DecodeBlock(blk, buf[:]), nil)
	}
	return v
}

// vecSums answers qs (filter column 0, aggregate column 1) in one shared
// pass shaped like the vectorized Server's: block-major, every query checks
// the block's zone map, a block wholly inside a range adds the block's sum,
// and a block some range straddles is decoded at most once per column for
// all the queries, which then filter and sum the decoded values.
func vecSums(v vecCols, qs []scanQ) []int64 {
	out := make([]int64, len(qs))
	var fbuf, abuf [compress.BlockValues]int64
	sel := make(vecexec.Sel, 0, compress.BlockValues)
	for blk := 0; blk < v.f.NumBlocks(); blk++ {
		n := v.f.BlockLen(blk)
		bmin, bmax := v.f.BlockRange(blk)
		fDecoded, aDecoded := false, false
		for i := range qs {
			q := &qs[i].q
			if bmin > q.Hi || bmax < q.Lo {
				continue
			}
			if bmin >= q.Lo && bmax <= q.Hi {
				out[i] += v.sums[blk]
				continue
			}
			if !fDecoded {
				v.f.DecodeBlock(blk, fbuf[:])
				fDecoded = true
			}
			sel = vecexec.RangeFilterI64(fbuf[:n], q.Lo, q.Hi, nil, sel[:0])
			if len(sel) == 0 {
				continue
			}
			if !aDecoded {
				v.a.DecodeBlock(blk, abuf[:])
				aDecoded = true
			}
			out[i] += vecexec.SumI64(abuf[:n], sel)
		}
	}
	return out
}

// kernelProbes times the scan kernels directly on the workload's table and
// sampled queries, one query and 32 queries per pass, on the row path
// (scan.Shared) and the compressed path (compress.Encode plus vecSums, the
// shared-pass block loop).
func kernelProbes(e *env, rep *report, cols [][]int64, qs []scanQ) error {
	rel, err := scan.NewRelation(cols)
	if err != nil {
		return err
	}
	rows := float64(len(cols[0]))
	const wide = 32
	batch := func(i, n int) []scanQ {
		j := (i * n) % (len(qs) - n)
		return qs[j : j+n]
	}
	var cycles float64
	row := func(n int) func(i int) error {
		return func(i int) error {
			b := batch(i, n)
			acct := hw.NewAccount(e.m, hw.DefaultContext())
			got, err := scan.Shared(rel, queriesOf(b), scan.SharedOptions{UseQueryIndex: true}, acct)
			if err != nil {
				return err
			}
			if n == wide {
				cycles += acct.TotalCycles()
			}
			return checkAll("scan probe", got, b)
		}
	}
	b1, err := repeat(row(1))
	if err != nil {
		return err
	}
	b32, err := repeat(row(wide))
	if err != nil {
		return err
	}
	rep.set("scan.ns_per_row_query_b1", median(b1)/rows, "ns")
	rep.set("scan.ns_per_row_query_b32", median(b32)/rows/wide, "ns")
	var wall float64
	for _, ns := range b32 {
		wall += ns
	}
	rep.set("hw.wall_ns_per_cycle.scan_probe", wall/cycles, "ns")

	enc, err := repeat(func(int) error {
		compress.Encode(cols[0])
		compress.Encode(cols[1])
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("compress.encode_s_per_mrow", median(enc)/1e9/(rows/1e6), "s")
	v := encodeVec(cols)
	rep.set("compress.ratio", float64(v.f.RawBytes()+v.a.RawBytes())/float64(v.f.Bytes()+v.a.Bytes()), "ratio")
	vec := func(n int) func(i int) error {
		return func(i int) error {
			b := batch(i, n)
			return checkAll("vecexec probe", vecSums(v, b), b)
		}
	}
	v1, err := repeat(vec(1))
	if err != nil {
		return err
	}
	v32, err := repeat(vec(wide))
	if err != nil {
		return err
	}
	rep.set("vecexec.ns_per_row_query_b1", median(v1)/rows, "ns")
	rep.set("vecexec.ns_per_row_query_b32", median(v32)/rows/wide, "ns")
	return nil
}

// loneRounds is how many lone requests each lone-request probe times.
const loneRounds = 15

// loneProbes sends lone scans, one at a time, through each serving layer
// built on the workload's table with the workload's server options: the
// direct kernel call, a Server, a one-shard one-replica Router and, when
// withHTTP, the /v1 stack over a default Router. It reports the batch-window
// tax (Server minus kernel) and the one-node router overhead (Router minus
// Server), and fills in the layer times a workload does not drive itself.
func loneProbes(ctx context.Context, e *env, rep *report, cols [][]int64, qs []scanQ, opts hwstar.ServerOptions, withHTTP bool) error {
	srv, err := hwstar.NewServer(e.m, opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.Register("facts", cols); err != nil {
		return err
	}
	r11, err := hwstar.NewRouter(ctx, e.m, hwstar.RouterOptions{Shards: 1, Replicas: 1, Shard: opts})
	if err != nil {
		return err
	}
	defer r11.Close()
	if err := r11.Register("facts", cols); err != nil {
		return err
	}
	rec := newRecorder()
	rec.setOn(true)
	var stack *v1Stack
	if withHTTP {
		if stack, err = newV1Stack(ctx, e.m, cols, hwstar.RouterOptions{Shard: opts}, rec); err != nil {
			return err
		}
		defer stack.close()
	}
	var kernel func(q scanQ) int64
	if opts.Vectorized {
		v := encodeVec(cols)
		kernel = func(q scanQ) int64 { return vecSums(v, []scanQ{q})[0] }
	} else {
		rel, err := scan.NewRelation(cols)
		if err != nil {
			return err
		}
		kernel = func(q scanQ) int64 {
			got, err := scan.Shared(rel, []scan.Query{q.q}, scan.SharedOptions{UseQueryIndex: true}, nil)
			if err != nil {
				return q.want + 1 // reported as a wrong answer below
			}
			return got[0]
		}
	}

	const warmup = 2
	var tk, ts, tr []float64
	for i := 0; i < warmup+loneRounds; i++ {
		q := qs[i%len(qs)]
		req := hwstar.Request{Op: hwstar.OpScan, Table: "facts", Query: q.q}
		t0 := time.Now()
		got := kernel(q)
		t1 := time.Now()
		resp, err := srv.Submit(ctx, req)
		t2 := time.Now()
		if err == nil {
			err = checkSum("lone server", resp.Sum, q)
		}
		if err != nil {
			return err
		}
		resp, err = r11.Submit(ctx, req)
		t3 := time.Now()
		if err == nil {
			err = checkSum("lone router", resp.Sum, q)
		}
		if err == nil {
			err = checkSum("lone kernel", got, q)
		}
		if err != nil {
			return err
		}
		if stack != nil {
			id := fmt.Sprintf("lone-%d", i)
			body, err := scanBody(q)
			if err != nil {
				return err
			}
			var out hwstar.V1QueryResponse
			t4 := time.Now()
			if _, err := stack.call(ctx, "/v1/query", stack.tokens[0], id, withTrace(body, id), &out); err != nil {
				return err
			}
			t5 := time.Now()
			if err := checkSum("lone /v1", out.Result.Sum, q); err != nil {
				return err
			}
			if i >= warmup {
				rec.add(id, "request", "", t4, t5)
			}
		}
		if i >= warmup {
			tk = append(tk, ms(t1.Sub(t0)))
			ts = append(ts, ms(t2.Sub(t1)))
			tr = append(tr, ms(t3.Sub(t2)))
		}
	}
	rep.set("serve.window_tax_ms", median(ts)-median(tk), "ms")
	rep.set("shard.one_node_overhead_ms", median(tr)-median(ts), "ms")

	rep.setDefault("serve.submit_ms_p50", median(ts), "ms")
	rep.setDefault("serve.submit_ms_p99", quantile(ts, 0.99), "ms")
	setServeRegistry(rep, srv)
	if stack != nil {
		lt := rec.selfTimes("request")
		rep.setDefault("frontend.self_ms_p50", median(lt.of("frontend.http")), "ms")
		rep.setDefault("frontend.self_ms_p99", quantile(lt.of("frontend.http"), 0.99), "ms")
		rep.setDefault("shard.submit_ms_p50", median(lt.of("shard.submit")), "ms")
		rep.setDefault("shard.submit_ms_p99", quantile(lt.of("shard.submit"), 0.99), "ms")
		setRouterCounters(rep, stack.router, loneRounds+warmup, 0, 0)
	}
	return nil
}

// setServeRegistry fills the serve-layer metrics read from a Server's own
// instruments, unless the workload measured them already.
func setServeRegistry(rep *report, srv *hwstar.Server) {
	reg := srv.Metrics()
	h := srv.Health()
	rep.setDefault("serve.queue_wait_ms_p50", reg.Histogram("serve.queue_wait_ms").Quantile(0.5), "ms")
	rep.setDefault("serve.batch_size_mean", reg.Histogram("serve.batch_size").Mean(), "queries")
	rep.setDefault("serve.rejected_ratio", safeDiv(float64(h.Rejected), float64(h.Admitted+h.Rejected)), "ratio")
	blocks := h.VecBlocksPruned + h.VecFastSums + h.VecBlocksScanned
	rep.setDefault("serve.vec_prune_ratio", safeDiv(float64(h.VecBlocksPruned), float64(blocks)), "ratio")
}

// setRouterCounters fills the router's routing ratios from its health
// counters: hedges over stripe dispatches, hedge wins over hedges. scans
// and inline are the scan and inline-data requests the router served.
func setRouterCounters(rep *report, r *hwstar.Router, scans, inline int, refused int64) {
	ch := r.ClusterHealth()
	dispatches := float64(scans*ch.Partitions + inline)
	rep.setDefault("shard.hedge_ratio", safeDiv(float64(ch.Hedges), dispatches), "ratio")
	rep.setDefault("shard.hedge_win_ratio", safeDiv(float64(ch.HedgeWins), float64(ch.Hedges)), "ratio")
	rep.setDefault("shard.failovers", float64(ch.Failovers), "count")
	rep.setDefault("frontend.refused_ratio", safeDiv(float64(refused), float64(scans+inline)), "ratio")
}

// storeProbe measures cold loads and the checkpoint stall on a
// persistRows prefix of the table: a Store whose DRAM budget holds nothing
// evicts the table at Checkpoint, so the next Load reads it from disk; a
// reader scanning through the Server meanwhile sees its latency while the
// checkpoint is in flight against its latency otherwise.
func storeProbe(ctx context.Context, e *env, rep *report, cols [][]int64, q scanQ, opts hwstar.ServerOptions) error {
	pre := prefix(cols, persistRows)
	q.want = newOracle(pre[0], pre[1]).sum(q.q.Lo, q.q.Hi)
	var coldMs []float64
	var coldLoads int64
	var during, idle []float64
	for i := 0; i < 3; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("cold-%d", i))
		st, err := hwstar.OpenStore(hwstar.StoreOptions{Dir: dir, Machine: e.m, HotBytes: 1})
		if err != nil {
			return err
		}
		o := opts
		o.Store = st
		srv, err := hwstar.NewServer(e.m, o)
		if err != nil {
			st.Close()
			return err
		}
		err = srv.WaitRecovered(ctx)
		if err == nil {
			err = srv.Register("t", pre)
		}
		if err == nil {
			var d, s []float64
			d, s, err = readDuringCheckpoint(ctx, srv, q)
			during, idle = append(during, d...), append(idle, s...)
		}
		if err == nil {
			t0 := time.Now()
			_, _, err = st.Load(ctx, "t")
			coldMs = append(coldMs, ms(time.Since(t0)))
			coldLoads += st.ColdLoads()
		}
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		st.Close()
		if err != nil {
			return err
		}
	}
	rep.setDefault("store.cold_loads", float64(coldLoads), "count")
	rep.setDefault("store.cold_load_ms_p50", median(coldMs), "ms")
	rep.setDefault("store.checkpoint_stall_ratio", safeDiv(quantile(during, 0.99), quantile(idle, 0.99)), "ratio")
	return nil
}

// readDuringCheckpoint scans q in a loop for 100 ms, then while srv
// checkpoints, then 100 ms more, and returns the latencies seen during the
// checkpoint and outside it.
func readDuringCheckpoint(ctx context.Context, srv *hwstar.Server, q scanQ) (during, idle []float64, err error) {
	var inCP, stop atomic.Bool
	var mu sync.Mutex
	var readErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			t0 := time.Now()
			resp, err := srv.Submit(ctx, hwstar.Request{Op: hwstar.OpScan, Table: "t", Query: q.q})
			if err == nil {
				err = checkSum("read during checkpoint", resp.Sum, q)
			}
			lat := ms(time.Since(t0))
			mu.Lock()
			if err != nil && readErr == nil {
				readErr = err
			}
			if inCP.Load() {
				during = append(during, lat)
			} else {
				idle = append(idle, lat)
			}
			mu.Unlock()
		}
	}()
	time.Sleep(100 * time.Millisecond)
	inCP.Store(true)
	_, err = srv.Checkpoint(ctx)
	inCP.Store(false)
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if err == nil {
		err = readErr
	}
	return during, idle, err
}

// setPersist reports a durability cycle: end-to-end commit, restart and
// space amplification, and the store's own times.
func setPersist(rep *report, ps *persistStats) {
	rep.setDefault("commit_p50_ms", median(ps.commit), "ms")
	rep.setDefault("restart_ms", median(ps.restart), "ms")
	rep.setDefault("space_amp", median(ps.spaceAmp), "ratio")
	rep.setDefault("store.checkpoint_ms_p50", median(ps.checkpoint), "ms")
	rep.setDefault("store.write_amp", median(ps.writeAmp), "ratio")
	rep.setDefault("store.recovery_ms_p50", median(ps.recovery), "ms")
	rep.setDefault("store.replay_ms_p50", median(ps.replay), "ms")
}

// Spans below the root wrap calls into the program, so their self times
// should account for the untraced median latency: bench.layer_sum_over_e2e
// is expected within coverageTolerance of 1. Outside it, the run says so on
// standard error.
const coverageTolerance = 0.2

// setTraceSummary reports the untraced segments' 95th-percentile latency,
// the tracing overhead (traced minus untraced median latency), how much of
// the untraced median the spans that wrap calls into the program account
// for, the benchmark's own unattributed time, the number of spans recorded,
// and the wall time per modeled cycle of the spans named call.
func setTraceSummary(rep *report, rec *recorder, lt layerTimes, untraced, traced *tally, call string) {
	rep.set("latency_p95_ms", quantile(untraced.lat, 0.95), "ms")
	rep.set("bench.trace_overhead_ms", median(traced.lat)-median(untraced.lat), "ms")
	cover := safeDiv(median(lt.attributed("request")), median(untraced.lat))
	if cover < 1-coverageTolerance || cover > 1+coverageTolerance {
		fmt.Fprintf(os.Stderr, "perfbench: the layers account for %.2f of the untraced median, outside 1±%.2f\n", cover, coverageTolerance)
	}
	rep.set("bench.layer_sum_over_e2e", cover, "ratio")
	rep.set("bench.unattributed_ms_p50", median(lt.of("request")), "ms")
	rep.set("bench.trace_spans", float64(rec.count()), "count")
	rep.set("hw.wall_ns_per_cycle", rec.nsPerCycle(call), "ns")
	rep.setDefault("bench.gen_late_ms_max", max(untraced.lateMax, traced.lateMax), "ms")
}

// scanBody encodes a v1 scan request on the table "facts".
func scanBody(q scanQ) ([]byte, error) {
	return jsonBody(hwstar.V1QueryRequest{Op: "scan", Table: "facts", Scan: &v1ScanArgs{FilterCol: q.q.FilterCol, Lo: q.q.Lo, Hi: q.q.Hi, AggCol: q.q.AggCol}})
}
