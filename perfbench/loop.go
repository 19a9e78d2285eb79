package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"
)

// errWrong marks an answer that disagrees with the oracle. It makes the run
// incorrect, not merely slower.
var errWrong = errors.New("answer disagrees with the oracle")

// op issues one operation for client or worker w as the k-th operation of
// its loop, checks the answer, and returns the modeled cycles the program
// reported for it. id names the operation's trace ("" when untraced); the
// cycles are recorded with the trace.
type op func(ctx context.Context, w, k int, id string) (cycles float64, err error)

// tally accumulates one phase's outcomes. Latencies are kept for successful
// operations only; failures count against error_ratio and fail any latency
// limit outright.
type tally struct {
	mu                       sync.Mutex
	lat                      []float64 // ms
	secs                     float64   // the phase's wall time
	attempted, failed, wrong int64
	lateMax                  float64 // ms
	logged                   int
}

func (t *tally) record(latMs, lateMs float64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if lateMs > t.lateMax {
		t.lateMax = lateMs
	}
	if err != nil {
		t.failed++
		if errors.Is(err, errWrong) {
			t.wrong++
		}
		if t.logged < 5 {
			t.logged++
			fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
		}
		return
	}
	t.lat = append(t.lat, latMs)
}

func (t *tally) ok() int64 { return t.attempted - t.failed }

// merge adds o's outcomes to t.
func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.secs += o.secs
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.lateMax = max(t.lateMax, o.lateMax)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceID names operation k of worker w in phase tag, or "" when rec is not
// recording.
func traceID(rec *recorder, tag string, w, k int) string {
	if !rec.recording() {
		return ""
	}
	return fmt.Sprintf("%s%d-%d", tag, w, k)
}

// closedLoop runs clients that each send their next operation only after the
// previous one completes, for d. Latency is per operation; "late" is the gap
// between a client's previous completion and its next send.
func closedLoop(ctx context.Context, clients int, d time.Duration, rec *recorder, tag, root string, fn op) *tally {
	t := &tally{}
	begin := time.Now()
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := time.Now()
			for k := 0; ctx.Err() == nil; k++ {
				start := time.Now()
				if !start.Before(deadline) {
					return
				}
				id := traceID(rec, tag, c, k)
				cyc, err := fn(ctx, c, k, id)
				end := time.Now()
				rec.add(id, root, "", start, end)
				rec.setCycles(id, cyc)
				t.record(ms(end.Sub(start)), ms(start.Sub(prev)), err)
				prev = end
			}
		}(c)
	}
	wg.Wait()
	t.secs = time.Since(begin).Seconds()
	return t
}

// arrival is one open-loop operation and the time it was due.
type arrival struct {
	k   int
	due time.Time
}

// openLoop sends Poisson arrivals at rate per second for d, drawn from rng,
// to workers goroutines that run fn. The arrival count is fixed at rate*d
// and only the arrival times are random, so runs differ in burstiness, not
// in offered load. Each operation is timed from when it was due, so a stall
// also charges the arrivals queued behind it. It returns the phase tally and
// the backlog: arrivals still unsent when the generator stopped.
func openLoop(ctx context.Context, rate float64, d time.Duration, workers int, rng *rand.Rand, rec *recorder, tag, root string, fn op) (*tally, int) {
	n := int(rate*d.Seconds() + 0.5)
	offsets := make([]float64, n+1)
	var sum float64
	for i := range offsets {
		sum += rng.ExpFloat64()
		offsets[i] = sum
	}
	t := &tally{}
	// The queue holds every arrival of the phase, so the generator never
	// blocks and its lateness measures the generator alone.
	queue := make(chan arrival, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := range queue {
				id := traceID(rec, tag, w, a.k)
				cyc, err := fn(ctx, w, a.k, id)
				end := time.Now()
				rec.add(id, root, "", a.due, end)
				rec.setCycles(id, cyc)
				t.record(ms(end.Sub(a.due)), -1, err)
			}
		}(w)
	}
	begin := time.Now()
	var lateMax float64
	for k := 0; k < n && ctx.Err() == nil; k++ {
		due := begin.Add(time.Duration(offsets[k] / sum * float64(d)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lateMax = max(lateMax, ms(time.Since(due)))
		queue <- arrival{k: k, due: due}
	}
	backlog := len(queue)
	close(queue)
	wg.Wait()
	t.mu.Lock()
	t.lateMax = lateMax
	t.secs = time.Since(begin).Seconds()
	t.mu.Unlock()
	return t, backlog
}

// maxWindows is how many back-to-back windows a main phase is cut into at
// most. Each end-to-end metric is computed per window and reported as the
// median over windows, so a host stall shorter than half the phase moves it
// little.
const maxWindows = 10

// minWindowOps is the fewest operations a window of an open loop, or a
// capacity rung, should hold.
const minWindowOps = 200

// openWindows is how many windows an open loop of rate per second for d
// can be cut into with minWindowOps arrivals in each.
func openWindows(rate float64, d time.Duration) int {
	return max(1, min(maxWindows, int(rate*d.Seconds()/minWindowOps)))
}

// windowed runs phase n times for d/n each and returns the windows'
// tallies.
func windowed(d time.Duration, n int, phase func(d time.Duration) *tally) []*tally {
	out := make([]*tally, n)
	for i := range out {
		out[i] = phase(d / time.Duration(n))
	}
	return out
}

// perWindow returns f of every window.
func perWindow(ws []*tally, f func(t *tally) float64) []float64 {
	out := make([]float64, len(ws))
	for i, t := range ws {
		out[i] = f(t)
	}
	return out
}

// Rung k of the capacity ladder offers ladderBase * ladderStep^k operations
// per second.
const (
	ladderBase = 20
	ladderStep = 1.1
)

// maxRungs bounds a capacity search. A search that has not found a passing
// rung next to a failing one by then makes the run invalid.
const maxRungs = 12

// jump is how many rungs the search moves while it has not yet bracketed
// the knee between a passing and a failing rung.
const jump = 4

// rungTime is how long one rung runs at rate: at least a second and at
// least minWindowOps arrivals.
func rungTime(rate float64) time.Duration {
	d := time.Duration(minWindowOps / rate * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// capacity searches the fixed ladder for the highest rung that meets the
// workload's limit on p95 latency, limitMs, with no failed operation and no
// growing backlog, and the rung above it does not. A backlog grows when more
// than 2% of a rung's arrivals are still queued when it ends. The search
// starts at the rung nearest hint, moves jump rungs at a time until one rung
// passes and another fails, then bisects between them. A failed rung is run
// once more before it counts as failed, so a single stall of the host does
// not decide it. It fails when no rung down to the lowest passes or when
// maxRungs rungs do not settle the knee. run executes one rung and returns
// its tally and backlog; all rungs count toward rep.
func capacity(limitMs, hint float64, rep *report, run func(rate float64, d time.Duration) (*tally, int)) (float64, error) {
	rate := func(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }
	passes := func(k int) bool {
		for try := 0; try < 2; try++ {
			tl, backlog := run(rate(k), rungTime(rate(k)))
			rep.add(tl)
			p95 := quantile(tl.lat, 0.95)
			pass := tl.failed == 0 && float64(backlog) <= 0.02*float64(tl.attempted+int64(backlog)) && p95 <= limitMs
			fmt.Fprintf(os.Stderr, "perfbench: ladder %.1f/s: p95 %.2f ms, %d failed, backlog %d, pass=%v\n",
				rate(k), p95, tl.failed, backlog, pass)
			if pass {
				return true
			}
		}
		return false
	}
	const none = -1
	k := max(0, int(math.Round(math.Log(hint/ladderBase)/math.Log(ladderStep))))
	lo, hi := none, none // highest passing and lowest failing rung so far
	for i := 0; i < maxRungs; i++ {
		if passes(k) {
			lo = k
			if hi != none && hi <= lo {
				hi = none // an earlier failure above this rung was noise
			}
		} else {
			hi = k
			if lo != none && lo >= hi {
				lo = none
			}
		}
		switch {
		case lo != none && hi == lo+1:
			return rate(lo), nil
		case lo == none && hi == 0:
			return 0, fmt.Errorf("capacity: not even the lowest rung, %.1f/s, met the limit", rate(0))
		case lo == none:
			k = max(0, hi-jump)
		case hi == none:
			k = lo + jump
		default:
			k = (lo + hi) / 2
		}
	}
	return 0, fmt.Errorf("capacity: %d rungs did not settle the knee", maxRungs)
}

// safeDiv returns num/den, or 0 when den is 0 (a ratio over no events).
func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
