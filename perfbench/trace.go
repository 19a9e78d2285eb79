package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one operation share Trace; Parent names the enclosing
// span's Name within that trace ("" for the operation's root).
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one switched off, records nothing.
type recorder struct {
	epoch  time.Time
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
	cycles map[string]float64 // per trace, the modeled cycles the program reported
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16), cycles: map[string]float64{}}
}

func (r *recorder) recording() bool { return r != nil && r.on.Load() }

func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// add records one span of trace id; a no-op for an empty id, which is what
// untraced operations carry.
func (r *recorder) add(id, name, parent string, start, end time.Time) {
	if id == "" || r == nil {
		return
	}
	s := span{Trace: id, Name: name, Parent: parent, Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// setCycles records the modeled cycles of trace id; a no-op for an empty id.
func (r *recorder) setCycles(id string, c float64) {
	if id == "" || r == nil {
		return
	}
	r.mu.Lock()
	r.cycles[id] = c
	r.mu.Unlock()
}

// nsPerCycle returns the wall time of the spans named name over the modeled
// cycles of their traces, in ns per cycle.
func (r *recorder) nsPerCycle(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ns, cycles float64
	for _, s := range r.spans {
		if c, ok := r.cycles[s.Trace]; ok && s.Name == name {
			ns += float64(s.End - s.Start)
			cycles += c
		}
	}
	return safeDiv(ns, cycles)
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is, per trace, the self time of each span name in ms: the
// span's duration minus the part of it its children cover.
type layerTimes map[string]map[string]float64

// selfTimes computes the self time of every recorded span whose trace
// root is named root.
func (r *recorder) selfTimes(root string) layerTimes {
	r.mu.Lock()
	byTrace := map[string][]span{}
	for _, s := range r.spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	r.mu.Unlock()
	out := layerTimes{}
	for id, ss := range byTrace {
		isRoot := false
		for _, s := range ss {
			if s.Parent == "" && s.Name == root {
				isRoot = true
			}
		}
		if !isRoot {
			continue
		}
		self := map[string]float64{}
		for _, s := range ss {
			var kids [][2]int64
			for _, c := range ss {
				if c.Parent == s.Name {
					kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
				}
			}
			self[s.Name] += float64(s.End-s.Start-covered(kids)) / 1e6
		}
		out[id] = self
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		switch {
		case first || x[0] >= end:
			total += x[1] - x[0]
			end = x[1]
			first = false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// of returns the self times of name across traces, in ms.
func (lt layerTimes) of(name string) []float64 {
	var out []float64
	for _, self := range lt {
		if v, ok := self[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// attributed returns, per trace, the time its spans below the root account
// for: the sum of their self times, which is the time spent inside calls
// into the program. The root's own self time is the benchmark's.
func (lt layerTimes) attributed(root string) []float64 {
	out := make([]float64, 0, len(lt))
	for _, self := range lt {
		var s float64
		for name, v := range self {
			if name != root {
				s += v
			}
		}
		out = append(out, s)
	}
	return out
}
