package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"hwstar"
	v1api "hwstar/internal/frontend/v1"
)

type v1ScanArgs = v1api.ScanArgs

// v1Req is one pre-encoded /v1 query and its expected answer.
type v1Req struct {
	body   []byte
	scan   *scanQ
	groups map[string]int64
}

const (
	v1Rows    = 1 << 18 // 256K rows x 2 columns = 4 MiB
	v1Clients = 2
	v1Pool    = 2048 // requests per client, reused in order
)

func jsonBody(q hwstar.V1QueryRequest) ([]byte, error) { return json.Marshal(q) }

// v1Requests draws a client's request pool: 90% range-SUM scans selecting
// ~6% of the key domain, 10% group-sums over 1K inline keys.
func v1Requests(r *rand.Rand, o *oracle) ([]v1Req, error) {
	scans := rangeQueries(r, o, v1Pool, 0.06, 0.06, 0)
	out := make([]v1Req, v1Pool)
	for i := range out {
		if r.Float64() < 0.1 {
			keys, vals := make([]int64, 1024), make([]int64, 1024)
			want := map[string]int64{}
			for j := range keys {
				keys[j], vals[j] = r.Int63n(64), r.Int63n(1<<16)
				want[strconv.FormatInt(keys[j], 10)] += vals[j]
			}
			body, err := jsonBody(hwstar.V1QueryRequest{Op: "group-sum", GroupSum: &v1api.GroupSumArgs{Keys: keys, Vals: vals}})
			if err != nil {
				return nil, err
			}
			out[i] = v1Req{body: body, groups: want}
			continue
		}
		body, err := scanBody(scans[i])
		if err != nil {
			return nil, err
		}
		out[i] = v1Req{body: body, scan: &scans[i]}
	}
	return out, nil
}

func checkGroups(got, want map[string]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("group-sum: %d groups, want %d: %w", len(got), len(want), errWrong)
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("group-sum: group %s = %d, want %d: %w", k, got[k], v, errWrong)
		}
	}
	return nil
}

// v1Counts tallies what a v1 phase sent and how the frontend answered.
type v1Counts struct {
	mu                     sync.Mutex
	scans, inline, refused int64
	invBatch               float64 // sum of 1/batch size over answers
}

func runV1(ctx context.Context, e *env) (*report, error) {
	cols := uniformCols(newRand(e.seed, streamTable), v1Rows, 1<<20)
	o := newOracle(cols[0], cols[1])
	qr := newRand(e.seed, streamQueries)
	var pools [v1Clients][]v1Req
	for c := range pools {
		p, err := v1Requests(qr, o)
		if err != nil {
			return nil, err
		}
		pools[c] = p
	}
	var rec *recorder
	if e.traced {
		rec = e.rec
	}
	stack, setupS, err := timedSetup(func() (*v1Stack, error) {
		return newV1Stack(ctx, e.m, cols, hwstar.RouterOptions{}, rec)
	}, func(s *v1Stack) { s.close() })
	if err != nil {
		return nil, err
	}
	defer stack.close()

	counts := &v1Counts{}
	issue := v1Issue(stack, &pools, counts)
	rep := &report{}

	if !e.traced {
		main := windowed(e.seconds, maxWindows, func(d time.Duration) *tally {
			return closedLoop(ctx, v1Clients, d, nil, "", "request", issue)
		})
		setE2E(rep, setupS, main)
		return rep, nil
	}

	seg := 0
	untraced, traced := interleave(rep, e.rec, e.seconds, func(d time.Duration, rec *recorder) *tally {
		seg++
		return closedLoop(ctx, v1Clients, d, rec, fmt.Sprintf("s%d-c", seg), "request", issue)
	})

	lt := e.rec.selfTimes("request")
	fe, sh := lt.of("frontend.http"), lt.of("shard.submit")
	rep.set("frontend.self_ms_p50", median(fe), "ms")
	rep.set("frontend.self_ms_p99", quantile(fe, 0.99), "ms")
	rep.set("shard.submit_ms_p50", median(sh), "ms")
	rep.set("shard.submit_ms_p99", quantile(sh, 0.99), "ms")
	setRouterCounters(rep, stack.router, int(counts.scans), int(counts.inline), counts.refused)
	answered := float64(untraced.ok() + traced.ok())
	// Each answer reports the largest batch among its stripes; the per-pass
	// mean is estimated as answers over the sum of 1/batch.
	rep.set("serve.batch_size_mean", safeDiv(answered, counts.invBatch), "queries")
	h := stack.router.Health()
	rep.set("serve.rejected_ratio", safeDiv(float64(h.Rejected), float64(h.Admitted+h.Rejected)), "ratio")
	setTraceSummary(rep, e.rec, lt, untraced, traced, "shard.submit")
	// The open-loop knee lies a little below the closed loop's throughput.
	hint := 0.9 * float64(untraced.ok()) / untraced.secs
	ladderRng := newRand(e.seed, streamLadder)
	capQPS, err := capacity(50, hint, rep, func(rate float64, d time.Duration) (*tally, int) {
		return openLoop(ctx, rate, d, v1Clients, ladderRng, nil, "", "request", issue)
	})
	if err != nil {
		return nil, err
	}
	rep.set("capacity_qps", capQPS, "1/s")

	gain, err := hedgeOffGain(ctx, e, rep, cols, &pools)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: with hedging held off the v1 stack answered %.3f times as many queries\n", gain)
	return rep, layerProbes(ctx, e, rep, cols, scansOf(pools[0]), hwstar.ServerOptions{})
}

func scansOf(p []v1Req) []scanQ {
	var out []scanQ
	for _, r := range p {
		if r.scan != nil {
			out = append(out, *r.scan)
		}
	}
	return out
}

// v1Issue returns the operation a v1 client runs: POST its next pooled
// request on its own session and check the answer.
func v1Issue(stack *v1Stack, pools *[v1Clients][]v1Req, counts *v1Counts) op {
	return func(ctx context.Context, w, k int, id string) (float64, error) {
		r := pools[w][k%v1Pool]
		var out hwstar.V1QueryResponse
		status, err := stack.call(ctx, "/v1/query", stack.tokens[w], id, withTrace(r.body, id), &out)
		counts.mu.Lock()
		if r.scan != nil {
			counts.scans++
		} else {
			counts.inline++
		}
		if status == http.StatusTooManyRequests {
			counts.refused++
		}
		if err == nil && out.Cost.BatchSize > 0 {
			counts.invBatch += 1 / float64(out.Cost.BatchSize)
		}
		counts.mu.Unlock()
		if err != nil {
			return 0, err
		}
		if out.Partial {
			return 0, fmt.Errorf("partial answer covering %.2f of the rows", out.CoveredFraction)
		}
		if r.scan != nil {
			return out.Cost.SimCycles, checkSum("v1 scan", out.Result.Sum, *r.scan)
		}
		return out.Cost.SimCycles, checkGroups(out.Result.Groups, r.groups)
	}
}

// hedgeOffGain compares the v1 stack's closed-loop throughput with hedging
// held off (a one-hour hedge delay) against the default adaptive hedging,
// in three alternating one-second rounds each, and returns off over on.
func hedgeOffGain(ctx context.Context, e *env, rep *report, cols [][]int64, pools *[v1Clients][]v1Req) (float64, error) {
	on, err := newV1Stack(ctx, e.m, cols, hwstar.RouterOptions{}, nil)
	if err != nil {
		return 0, err
	}
	defer on.close()
	off, err := newV1Stack(ctx, e.m, cols, hwstar.RouterOptions{HedgeDelay: time.Hour}, nil)
	if err != nil {
		return 0, err
	}
	defer off.close()
	var okOn, okOff int64
	for round := 0; round < 3; round++ {
		for _, s := range []*v1Stack{on, off} {
			t := closedLoop(ctx, v1Clients, time.Second, nil, "", "request", v1Issue(s, pools, &v1Counts{}))
			rep.add(t)
			if s == on {
				okOn += t.ok()
			} else {
				okOff += t.ok()
			}
		}
	}
	return safeDiv(float64(okOff), float64(okOn)), nil
}
