package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"hwstar/internal/scan"
)

// The serve-layer wall-clock benchmarks run under the default Options, so
// they measure the dispatch policy a caller gets without tuning:
//
//	go test ./internal/serve -run '^$' -bench BenchmarkServe -benchmem

// BenchmarkServeLoneScan submits one scan at a time, each waiting for its
// answer before the next: the idle-server latency of a single request.
func BenchmarkServeLoneScan(b *testing.B) {
	for _, rows := range []int{1 << 10, 1 << 18} {
		b.Run("rows="+strconv.Itoa(rows), func(b *testing.B) {
			cols, expect := testRelation(rows)
			s := newServer(b, Options{})
			defer s.Close()
			if err := s.Register("events", cols); err != nil {
				b.Fatal(err)
			}
			req := Request{Op: OpScan, Table: "events", Query: scan.Query{FilterCol: 0, Lo: 1000, Hi: 6000, AggCol: 1}}
			want := expect(1000, 6000)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := s.Submit(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				if resp.Sum != want {
					b.Fatalf("sum %d, want %d", resp.Sum, want)
				}
			}
		})
	}
}

// BenchmarkServeShared32 submits bursts of 32 concurrent scans of one
// 256K-row table; one op is a whole burst. It reports the mean number of
// scans that shared a pass.
func BenchmarkServeShared32(b *testing.B) {
	const clients = 32
	cols, expect := testRelation(1 << 18)
	s := newServer(b, Options{})
	defer s.Close()
	if err := s.Register("events", cols); err != nil {
		b.Fatal(err)
	}
	reqs := make([]Request, clients)
	want := make([]int64, clients)
	for i := range reqs {
		lo := int64(i * 250)
		reqs[i] = Request{Op: OpScan, Table: "events", Query: scan.Query{FilterCol: 0, Lo: lo, Hi: lo + 2000, AggCol: 1}}
		want[i] = expect(lo, lo+2000)
	}
	ctx := context.Background()
	errc := make(chan error, clients)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := s.Submit(ctx, reqs[c])
				if err == nil && resp.Sum != want[c] {
					err = fmt.Errorf("client %d: sum %d, want %d", c, resp.Sum, want[c])
				}
				if err != nil {
					errc <- err
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
	}
	b.StopTimer()
	b.ReportMetric(s.Metrics().Histogram("serve.batch_size").Mean(), "scans/pass")
}
