package main

import (
	"context"
	"fmt"
	"time"

	"hwstar"
)

// scanWorkload is an open-loop stream of range-SUM scans, sent in process
// to one vectorized Server at a fixed rate.
type scanWorkload struct {
	cols    [][]int64
	qs      []scanQ
	rate    float64 // per second, below the seed commit's capacity
	limitMs float64 // the capacity ladder's limit on p95 latency
	capHint float64 // per second: where the capacity search starts
}

// scanUniformRate is scan-uniform's offered load, well below the seed
// commit's capacity on it.
const scanUniformRate = 20

// openWorkers bounds the scans in flight in the open loop; arrivals beyond
// it queue in the generator and are charged the wait.
const openWorkers = 64

func runScanUniform(ctx context.Context, e *env) (*report, error) {
	cols := uniformCols(newRand(e.seed, streamTable), 1<<20, 1<<20)
	o := newOracle(cols[0], cols[1])
	return runScan(ctx, e, scanWorkload{
		cols:    cols,
		qs:      rangeQueries(newRand(e.seed, streamQueries), o, 4096, 0.01, 0.5, 0.25),
		rate:    scanUniformRate,
		limitMs: 500,
		capHint: 160,
	})
}

func runScanClustered(ctx context.Context, e *env) (*report, error) {
	cols := clusteredCols(newRand(e.seed, streamTable), 1<<22)
	o := newOracle(cols[0], cols[1])
	return runScan(ctx, e, scanWorkload{
		cols:    cols,
		qs:      rangeQueries(newRand(e.seed, streamQueries), o, 4096, 0.01, 0.5, 0.25),
		rate:    300,
		limitMs: 50,
		capHint: 8000,
	})
}

func runScan(ctx context.Context, e *env, w scanWorkload) (*report, error) {
	opts := hwstar.ServerOptions{Vectorized: true}
	srv, setupS, err := timedSetup(func() (*hwstar.Server, error) {
		s, err := hwstar.NewServer(e.m, opts)
		if err != nil {
			return nil, err
		}
		if err := s.Register("t", w.cols); err != nil {
			s.Close()
			return nil, err
		}
		return s, nil
	}, func(s *hwstar.Server) { s.Close() })
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	issue := func(ctx context.Context, _, k int, id string) (float64, error) {
		q := w.qs[k%len(w.qs)]
		start := time.Now()
		resp, err := srv.Submit(ctx, hwstar.Request{Op: hwstar.OpScan, Table: "t", Query: q.q})
		e.rec.add(id, "serve.submit", "request", start, time.Now())
		if err != nil {
			return 0, err
		}
		return resp.SimCycles, checkSum("scan", resp.Sum, q)
	}
	rep := &report{}
	arrivals := newRand(e.seed, streamArrivals)

	if !e.traced {
		main := windowed(e.seconds, openWindows(w.rate, e.seconds), func(d time.Duration) *tally {
			t, _ := openLoop(ctx, w.rate, d, openWorkers, arrivals, nil, "", "request", issue)
			return t
		})
		setE2E(rep, setupS, main)
		return rep, nil
	}

	seg := 0
	untraced, traced := interleave(rep, e.rec, e.seconds, func(d time.Duration, rec *recorder) *tally {
		seg++
		t, _ := openLoop(ctx, w.rate, d, openWorkers, arrivals, rec, fmt.Sprintf("s%d-q", seg), "request", issue)
		return t
	})

	lt := e.rec.selfTimes("request")
	sub := lt.of("serve.submit")
	rep.set("serve.submit_ms_p50", median(sub), "ms")
	rep.set("serve.submit_ms_p99", quantile(sub, 0.99), "ms")
	setServeRegistry(rep, srv)
	setTraceSummary(rep, e.rec, lt, untraced, traced, "serve.submit")
	ladderRng := newRand(e.seed, streamLadder)
	capQPS, err := capacity(w.limitMs, w.capHint, rep, func(rate float64, d time.Duration) (*tally, int) {
		return openLoop(ctx, rate, d, openWorkers, ladderRng, nil, "", "request", issue)
	})
	if err != nil {
		return nil, err
	}
	rep.set("capacity_qps", capQPS, "1/s")
	return rep, layerProbes(ctx, e, rep, w.cols, w.qs, opts)
}

// layerProbes runs every probe of a traced run: the kernels, lone requests
// through each layer, a durability cycle and the store probe.
func layerProbes(ctx context.Context, e *env, rep *report, cols [][]int64, qs []scanQ, opts hwstar.ServerOptions) error {
	if err := kernelProbes(e, rep, cols, qs); err != nil {
		return err
	}
	if err := loneProbes(ctx, e, rep, cols, qs, opts, !rep.has("frontend.self_ms_p50")); err != nil {
		return err
	}
	if !rep.has("store.checkpoint_ms_p50") {
		ps, err := persistCycles(ctx, e, cols, opts, qs[0])
		if err != nil {
			return err
		}
		setPersist(rep, ps)
	}
	if rep.has("store.cold_load_ms_p50") && rep.has("store.checkpoint_stall_ratio") {
		return nil
	}
	return storeProbe(ctx, e, rep, cols, qs[0], opts)
}

// setE2E reports the end-to-end metrics of a main phase cut into windows:
// the median latency and the throughput are each the median over the
// windows of the window's own value.
func setE2E(rep *report, setupS float64, ws []*tally) {
	for _, t := range ws {
		rep.add(t)
	}
	rep.set("setup_s", setupS, "s")
	rep.set("latency_p50_ms", median(perWindow(ws, func(t *tally) float64 { return median(t.lat) })), "ms")
	rep.set("throughput_qps", median(perWindow(ws, func(t *tally) float64 { return float64(t.ok()) / t.secs })), "1/s")
}
