package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"hwstar"
)

// Every input is drawn from a generator seeded by the run's -seed and a
// fixed stream number, so one seed reproduces byte-identical inputs and the
// program under test receives only generated data.
const (
	streamTable uint64 = iota + 1
	streamQueries
	streamArrivals
	streamLadder
	streamProbe
	streamWriter
	streamVersion // + table
)

func newRand(seed int64, stream uint64) *rand.Rand {
	z := uint64(seed) ^ stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

// uniformCols returns two columns of rows values uniform in [0, domain).
func uniformCols(r *rand.Rand, rows int, domain int64) [][]int64 {
	cols := [][]int64{make([]int64, rows), make([]int64, rows)}
	for i := 0; i < rows; i++ {
		cols[0][i] = r.Int63n(domain)
		cols[1][i] = r.Int63n(domain)
	}
	return cols
}

// clusteredCols returns a sorted filter column (a random walk with steps in
// [0, 4)) and an aggregate column of constant runs 256 to 4096 rows long,
// the shapes zone maps prune and RLE compresses.
func clusteredCols(r *rand.Rand, rows int) [][]int64 {
	cols := [][]int64{make([]int64, rows), make([]int64, rows)}
	var v int64
	for i := 0; i < rows; i++ {
		v += r.Int63n(4)
		cols[0][i] = v
	}
	for i := 0; i < rows; {
		n := 256 + r.Intn(4096-256+1)
		val := r.Int63n(1000)
		for j := 0; j < n && i < rows; j++ {
			cols[1][i] = val
			i++
		}
	}
	return cols
}

// oracle answers range-SUM queries from prefix sums over a copy of the
// table sorted by the filter column.
type oracle struct {
	keys []int64 // filter values, ascending
	pre  []int64 // pre[i] = sum of the aggregate over the first i sorted rows
}

func newOracle(filter, agg []int64) *oracle {
	n := len(filter)
	o := &oracle{keys: make([]int64, n), pre: make([]int64, n+1)}
	if slices.IsSorted(filter) {
		copy(o.keys, filter)
		for i, a := range agg {
			o.pre[i+1] = o.pre[i] + a
		}
		return o
	}
	packed := true
	for i := range filter {
		if filter[i] < 0 || filter[i] >= 1<<31 || agg[i] < 0 || agg[i] >= 1<<32 {
			packed = false
			break
		}
	}
	if packed {
		// Sorting (filter, agg) pairs packed into one word is several times
		// faster than sorting an index.
		pairs := make([]uint64, n)
		for i := range filter {
			pairs[i] = uint64(filter[i])<<32 | uint64(agg[i])
		}
		slices.Sort(pairs)
		for i, p := range pairs {
			o.keys[i] = int64(p >> 32)
			o.pre[i+1] = o.pre[i] + int64(p&(1<<32-1))
		}
		return o
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return filter[idx[a]] < filter[idx[b]] })
	for i, j := range idx {
		o.keys[i] = filter[j]
		o.pre[i+1] = o.pre[i] + agg[j]
	}
	return o
}

// sum returns the sum of the aggregate over rows whose filter value lies in
// [lo, hi].
func (o *oracle) sum(lo, hi int64) int64 {
	i := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] >= lo })
	j := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] > hi })
	if j < i {
		return 0
	}
	return o.pre[j] - o.pre[i]
}

// count returns the number of rows whose filter value lies in [lo, hi].
func (o *oracle) count(lo, hi int64) int64 {
	i := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] >= lo })
	j := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] > hi })
	return int64(max(j-i, 0))
}

// scanQ is one range-SUM query (filter column 0, aggregate column 1) and
// its expected answer.
type scanQ struct {
	q    hwstar.ScanQuery
	want int64
}

// rangeQueries draws n queries over the filter domain [lo, hi]: a share
// wide of them select ~wideSel of the domain, the rest ~narrowSel.
func rangeQueries(r *rand.Rand, o *oracle, n int, narrowSel, wideSel, wide float64) []scanQ {
	lo, hi := o.keys[0], o.keys[len(o.keys)-1]
	span := hi - lo + 1
	out := make([]scanQ, n)
	for i := range out {
		sel := narrowSel
		if r.Float64() < wide {
			sel = wideSel
		}
		w := int64(float64(span) * sel)
		a := lo + r.Int63n(span-w+1)
		q := hwstar.ScanQuery{FilterCol: 0, Lo: a, Hi: a + w - 1, AggCol: 1}
		out[i] = scanQ{q: q, want: o.sum(q.Lo, q.Hi)}
	}
	return out
}

// checkSum compares a scan answer with the oracle's.
func checkSum(what string, got int64, q scanQ) error {
	if got != q.want {
		return fmt.Errorf("%s [%d,%d]: sum %d, want %d: %w", what, q.q.Lo, q.q.Hi, got, q.want, errWrong)
	}
	return nil
}

// fingerprint hashes columns and queries byte for byte.
func fingerprint(cols [][]int64, qs []scanQ) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, c := range cols {
		for _, v := range c {
			put(v)
		}
	}
	for _, q := range qs {
		put(q.q.Lo)
		put(q.q.Hi)
		put(q.want)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// selfTest runs before every measurement. It proves that (1) the seed alone
// determines the inputs: one seed gives byte-identical tables and queries,
// another seed different ones; (2) the oracle agrees with a naive loop and
// with the server on a small table; and (3) the answer check catches a
// single corrupted expected value.
func selfTest(ctx context.Context, seed int64) error {
	gen := func(s int64) ([][]int64, []scanQ) {
		cols := uniformCols(newRand(s, streamTable), 4096, 1<<20)
		cl := clusteredCols(newRand(s, streamTable), 4096)
		qs := rangeQueries(newRand(s, streamQueries), newOracle(cols[0], cols[1]), 64, 0.01, 0.5, 0.25)
		qs = append(qs, rangeQueries(newRand(s, streamQueries), newOracle(cl[0], cl[1]), 64, 0.01, 0.5, 0.25)...)
		return append(cols, cl...), qs
	}
	c1, q1 := gen(seed)
	c2, q2 := gen(seed)
	c3, q3 := gen(seed + 1)
	if fingerprint(c1, q1) != fingerprint(c2, q2) {
		return errors.New("one seed produced two different inputs")
	}
	if fingerprint(c1, q1) == fingerprint(c3, q3) {
		return errors.New("two seeds produced identical inputs")
	}

	cols := c1[:2]
	for _, q := range q1[:64] {
		var naive int64
		for i, v := range cols[0] {
			if v >= q.q.Lo && v <= q.q.Hi {
				naive += cols[1][i]
			}
		}
		if naive != q.want {
			return fmt.Errorf("oracle %d, naive loop %d on [%d,%d]", q.want, naive, q.q.Lo, q.q.Hi)
		}
	}
	srv, err := hwstar.NewServer(hwstar.Server2S(), hwstar.ServerOptions{})
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.Register("selftest", cols); err != nil {
		return err
	}
	q := q1[0]
	resp, err := srv.Submit(ctx, hwstar.Request{Op: hwstar.OpScan, Table: "selftest", Query: q.q})
	if err != nil {
		return err
	}
	if err := checkSum("self-test", resp.Sum, q); err != nil {
		return err
	}
	q.want++
	if err := checkSum("self-test", resp.Sum, q); !errors.Is(err, errWrong) {
		return errors.New("a corrupted expected value went unnoticed")
	}
	return nil
}
