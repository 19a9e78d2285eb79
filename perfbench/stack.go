package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hwstar"
)

// A run builds its stack at least setupMinReps times and until setupBudget
// has passed (at most setupMaxReps times); setup_s is the median.
const (
	setupMinReps = 5
	setupMaxReps = 200
	setupBudget  = 2 * time.Second
)

// timedSetup builds a stack repeatedly, closing all but the last build, and
// returns the last one with the median build time in seconds.
func timedSetup[T any](build func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var secs []float64
	begin := time.Now()
	for i := 0; i < setupMinReps || (i < setupMaxReps && time.Since(begin) < setupBudget); i++ {
		if i > 0 {
			closeFn(last)
		}
		start := time.Now()
		s, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = s
	}
	return last, median(secs), nil
}

// tracedBackend is the frontend's Backend: the router, with a span recorded
// around every Submit the frontend makes. The span joins the client's trace
// through the v1 trace_id the client sent.
type tracedBackend struct {
	*hwstar.Router
	rec *recorder
}

func (b tracedBackend) Submit(ctx context.Context, req hwstar.Request) (hwstar.Response, error) {
	start := time.Now()
	resp, err := b.Router.Submit(ctx, req)
	b.rec.add(req.TraceID, "shard.submit", "frontend.http", start, time.Now())
	return resp, err
}

// v1Stack is the /v1 frontend over an httptest loopback, in front of a
// router, with one open session per tenant.
type v1Stack struct {
	rec    *recorder // nil when untraced
	router *hwstar.Router
	ts     *httptest.Server
	tr     *http.Transport
	client *http.Client
	tokens []string
}

var v1Tenants = []hwstar.TenantConfig{{ID: "tenant-a", Key: "key-a"}, {ID: "tenant-b", Key: "key-b"}}

// newV1Stack builds the stack on the table "facts". opts are the router's
// options; rec, when non-nil, traces the Backend calls.
func newV1Stack(ctx context.Context, m *hwstar.Machine, cols [][]int64, opts hwstar.RouterOptions, rec *recorder) (*v1Stack, error) {
	r, err := hwstar.NewRouter(ctx, m, opts)
	if err != nil {
		return nil, err
	}
	if err := r.Register("facts", cols); err != nil {
		r.Close()
		return nil, err
	}
	var be hwstar.FrontendBackend = r
	if rec != nil {
		be = tracedBackend{Router: r, rec: rec}
	}
	f, err := hwstar.NewFrontend(hwstar.FrontendConfig{Backend: be, Tenants: v1Tenants})
	if err != nil {
		r.Close()
		return nil, err
	}
	s := &v1Stack{rec: rec, router: r, ts: httptest.NewServer(f.Handler())}
	// At most two keep-alive connections: one per client.
	s.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr}
	for _, t := range v1Tenants {
		body, err := json.Marshal(hwstar.V1SessionRequest{Tenant: t.ID, Key: t.Key})
		if err != nil {
			s.close()
			return nil, err
		}
		var sess hwstar.V1SessionResponse
		if _, err := s.call(ctx, "/v1/session", "", "", body, &sess); err != nil {
			s.close()
			return nil, fmt.Errorf("open session: %w", err)
		}
		s.tokens = append(s.tokens, sess.Token)
	}
	return s, nil
}

func (s *v1Stack) close() {
	s.tr.CloseIdleConnections()
	s.ts.Close()
	s.router.Close()
}

// call POSTs body to path and decodes a 200 answer into out. It returns the
// HTTP status. The round trip, up to the last byte of the answer, is the
// span frontend.http of trace id.
func (s *v1Stack) call(ctx context.Context, path, token, id string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	s.rec.add(id, "frontend.http", "request", start, time.Now())
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

// withTrace inserts a trace_id into a pre-encoded v1 query body.
func withTrace(body []byte, id string) []byte {
	if id == "" {
		return body
	}
	out := make([]byte, 0, len(body)+len(id)+16)
	out = append(out, `{"trace_id":"`...)
	out = append(out, id...)
	out = append(out, `",`...)
	return append(out, body[1:]...)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// prefix returns the first n rows of cols (all of them when fewer).
func prefix(cols [][]int64, n int) [][]int64 {
	n = min(n, len(cols[0]))
	return [][]int64{cols[0][:n], cols[1][:n]}
}

func userBytes(cols [][]int64) int64 { return int64(len(cols) * len(cols[0]) * 8) }

// persistStats is one durability cycle on a workload's table: make it
// durable, close, reopen, and answer again. Workloads that do not drive the
// store run these cycles as a probe of the store layer in their traced run.
type persistStats struct {
	commit, checkpoint, recovery, replay, restart []float64 // ms
	spaceAmp, writeAmp                            []float64
}

// The store probe makes durability cycles for at least persistBudget and
// at least persistMinReps times, and reports medians. A cycle is mostly fsync,
// whose latency varies widely from moment to moment, so many short cycles
// spread over seconds give a steadier median than a few long ones.
const (
	persistMinReps = 31
	persistBudget  = 3 * time.Second
)

// persistRows caps the table a durability cycle persists: a 1 MiB prefix
// keeps the cycles within a few seconds on every workload.
const persistRows = 1 << 16

// persistCycles runs durability cycles of a prefix of cols through a Store
// with its default placement (everything hot) behind a Server with opts.
// The restart ends with the correct answer to q over the prefix.
func persistCycles(ctx context.Context, e *env, cols [][]int64, opts hwstar.ServerOptions, q scanQ) (*persistStats, error) {
	cols = prefix(cols, persistRows)
	q.want = newOracle(cols[0], cols[1]).sum(q.q.Lo, q.q.Hi)
	ps := &persistStats{}
	begin := time.Now()
	for i := 0; i < persistMinReps || time.Since(begin) < persistBudget; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("persist-%d", i))
		if err := persistOnce(ctx, e.m, dir, cols, opts, q, ps); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

func persistOnce(ctx context.Context, m *hwstar.Machine, dir string, cols [][]int64, opts hwstar.ServerOptions, q scanQ, ps *persistStats) error {
	st, err := hwstar.OpenStore(hwstar.StoreOptions{Dir: dir, Machine: m})
	if err != nil {
		return err
	}
	opts.Store = st
	srv, err := hwstar.NewServer(m, opts)
	if err != nil {
		st.Close()
		return err
	}
	if err := srv.WaitRecovered(ctx); err != nil {
		srv.Close()
		st.Close()
		return err
	}
	t0 := time.Now()
	err = srv.Register("t", cols)
	t1 := time.Now()
	var cp hwstar.CheckpointStats
	if err == nil {
		cp, err = srv.Checkpoint(ctx)
	}
	t2 := time.Now()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	st.Close()
	if err != nil {
		return err
	}
	ps.commit = append(ps.commit, ms(t2.Sub(t0)))
	ps.checkpoint = append(ps.checkpoint, ms(t2.Sub(t1)))
	ps.writeAmp = append(ps.writeAmp, float64(cp.Bytes)/float64(userBytes(cols)))

	t3 := time.Now()
	st, err = hwstar.OpenStore(hwstar.StoreOptions{Dir: dir, Machine: m})
	if err != nil {
		return err
	}
	defer st.Close()
	t4 := time.Now()
	srv, err = hwstar.NewServer(m, opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.WaitRecovered(ctx); err != nil {
		return err
	}
	t5 := time.Now()
	resp, err := srv.Submit(ctx, hwstar.Request{Op: hwstar.OpScan, Table: "t", Query: q.q})
	if err != nil {
		return err
	}
	if err := checkSum("after restart", resp.Sum, q); err != nil {
		return err
	}
	t6 := time.Now()
	ps.recovery = append(ps.recovery, ms(t4.Sub(t3)))
	ps.replay = append(ps.replay, ms(t5.Sub(t4)))
	ps.restart = append(ps.restart, ms(t6.Sub(t3)))
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	ps.spaceAmp = append(ps.spaceAmp, float64(n)/float64(userBytes(cols)))
	return nil
}

// interleave runs phase four times for a quarter of d each, alternating
// untraced and traced, so that slow episodes of the host land on both sides
// of the tracing-overhead comparison. It reports the untraced segments'
// allocations per operation and GC pause.
func interleave(rep *report, rec *recorder, d time.Duration, phase func(d time.Duration, rec *recorder) *tally) (untraced, traced *tally) {
	untraced, traced = &tally{}, &tally{}
	var mallocs, bytes, pauseNs uint64
	for i := 0; i < 4; i++ {
		if i%2 == 1 {
			rec.setOn(true)
			traced.merge(phase(d/4, rec))
			rec.setOn(false)
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		untraced.merge(phase(d/4, nil))
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		pauseNs += after.PauseTotalNs - before.PauseTotalNs
	}
	rep.add(untraced)
	rep.add(traced)
	n := float64(max(untraced.attempted, 1))
	rep.set("runtime.allocs_per_op", float64(mallocs)/n, "allocs")
	rep.set("runtime.bytes_per_op", float64(bytes)/n, "B")
	rep.set("runtime.gc_pause_ms", float64(pauseNs)/1e6, "ms")
	return untraced, traced
}
