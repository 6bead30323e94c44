package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call in a traced run. Every operation a client
// performs (a debug session, a query, a capture or reopen, a daemon
// request) is a root span; every call the operation makes into a layer of
// the program is a child span named after the layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Client int    `json:"client"`
	Op     int    `json:"op"` // operation index within the client, from 1
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // nanoseconds since the timed window opened
	End    int64  `json:"end_ns"`
}

// spanLog records one client's spans in memory. A disabled log records
// nothing and allocates nothing, so the untraced run pays one branch per
// call.
type spanLog struct {
	on     bool
	t0     time.Time
	client int
	op     int
	list   []span
	open   []int // indices of the spans begun and not yet ended
}

func (l *spanLog) begin(name string) {
	if !l.on {
		return
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	} else {
		l.op++
	}
	l.list = append(l.list, span{
		ID: len(l.list), Parent: parent, Client: l.client, Op: l.op,
		Name: name, Start: int64(time.Since(l.t0)),
	})
	l.open = append(l.open, len(l.list)-1)
}

func (l *spanLog) end() {
	if !l.on || len(l.open) == 0 {
		return
	}
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.list[i].End = int64(time.Since(l.t0))
}

// endAll closes every open span, after an operation failed part-way.
func (l *spanLog) endAll() {
	for len(l.open) > 0 {
		l.end()
	}
}

// mergeSpans concatenates the clients' logs, renumbering IDs so they are
// unique across the run.
func mergeSpans(logs []*spanLog) []span {
	var out []span
	for _, l := range logs {
		base := len(out)
		for _, s := range l.list {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// spanStats is the self-time breakdown of a traced window.
type spanStats struct {
	// self is each layer's self time in nanoseconds: the duration of its
	// spans minus the part their children cover. The root spans' own self
	// time, the generator's work between layer calls, is under benchLayer.
	self map[string]int64
	// rootNs is the summed duration of all operations.
	rootNs int64
	spans  int
}

// benchLayer names the benchmark's own time inside an operation.
const benchLayer = "bench"

// analyzeSpans checks that the spans form well-nested trees (every child
// lies inside its parent, siblings do not overlap, self time is never
// negative) and sums self time by layer.
func analyzeSpans(list []span) (spanStats, error) {
	st := spanStats{self: map[string]int64{}, spans: len(list)}
	childNs := make([]int64, len(list))
	lastChildEnd := make([]int64, len(list))
	for i, s := range list {
		if s.ID != i {
			return st, fmt.Errorf("span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			return st, fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			st.rootNs += s.End - s.Start
			continue
		}
		if s.Parent >= i {
			return st, fmt.Errorf("span %d (%s) precedes its parent %d", i, s.Name, s.Parent)
		}
		p := list[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return st, fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", i, s.Name, p.ID, p.Name)
		}
		if s.Start < lastChildEnd[s.Parent] {
			return st, fmt.Errorf("span %d (%s) overlaps an earlier sibling", i, s.Name)
		}
		lastChildEnd[s.Parent] = s.End
		childNs[s.Parent] += s.End - s.Start
	}
	for i, s := range list {
		self := s.End - s.Start - childNs[i]
		if self < 0 {
			return st, fmt.Errorf("span %d (%s) has negative self time", i, s.Name)
		}
		name := s.Name
		if s.Parent < 0 {
			name = benchLayer
		}
		st.self[name] += self
	}
	return st, nil
}

// spanFile is the JSON document a traced run writes.
type spanFile struct {
	Workload string `json:"workload"`
	Facts    facts  `json:"facts"`
	Spans    []span `json:"spans"`
}

func writeSpans(dir string, f spanFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", f.Workload, f.Facts.Seed))
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
