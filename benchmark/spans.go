package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one in-memory trace span recorded by the harness around a
// call into the system under test. Parent is 0 for a root.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Time
	// Self is the span's duration minus the part of it its children
	// cover, filled by fillSelfTimes.
	Self time.Duration
}

func (s span) duration() time.Duration { return s.End.Sub(s.Start) }

// requestSpans assembles one request's span tree from what the conn
// wrapper and the ORAM server wrapper recorded while it was in flight:
//
//	loadgen.request            the caller's view, [start, end)
//	├─ conn.write              first Write start → last Write end
//	├─ conn.wait               last Write end → first reply byte read
//	│  └─ oram.server.*        shard server calls made meanwhile
//	└─ conn.read               first reply byte → last Read return
//
// IDs are nextID, nextID+1, …, one per returned span, so a caller that
// advances nextID by the length keeps IDs unique across requests.
func requestSpans(nextID int, start, end time.Time, act connActivity, server []interval) []span {
	root := span{ID: nextID, Name: "loadgen.request", Start: start, End: end}
	spans := []span{root}
	if len(act.writes) == 0 {
		return spans
	}
	wStart, wEnd := act.writes[0].Start, act.writes[0].End
	for _, w := range act.writes[1:] {
		if w.End.After(wEnd) {
			wEnd = w.End
		}
	}
	spans = append(spans, span{ID: nextID + 1, Parent: root.ID, Name: "conn.write", Start: wStart, End: wEnd})

	// The mux's reader is already blocked in Read when the request is
	// written, so the first Read that returns after the last Write marks
	// the reply's first byte.
	var first, last time.Time
	for _, r := range act.reads {
		if r.End.Before(wEnd) {
			continue
		}
		if first.IsZero() {
			first = r.End
		}
		last = r.End
	}
	if first.IsZero() {
		return spans
	}
	wait := span{ID: nextID + 2, Parent: root.ID, Name: "conn.wait", Start: wEnd, End: first}
	spans = append(spans, wait,
		span{ID: nextID + 3, Parent: root.ID, Name: "conn.read", Start: first, End: last})
	id := nextID + 4
	for _, iv := range server {
		if iv.End.Before(start) || iv.Start.After(end) {
			continue
		}
		spans = append(spans, span{ID: id, Parent: wait.ID, Name: iv.Name, Start: iv.Start, End: iv.End})
		id++
	}
	return spans
}

// fillSelfTimes sets every span's Self to its duration minus the part
// of its interval covered by its direct children (overlapping children
// — two shard servers busy at once — are not subtracted twice).
func fillSelfTimes(spans []span) {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{Start: s.Start, End: s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.duration() - coveredWithin(s.Start, s.End, children[s.ID])
	}
}

// coveredWithin is the length of the union of ivs clipped to [lo, hi).
func coveredWithin(lo, hi time.Time, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Start.Before(lo) {
			iv.Start = lo
		}
		if iv.End.After(hi) {
			iv.End = hi
		}
		if iv.End.After(iv.Start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start.Before(clipped[j].Start) })
	var total time.Duration
	var curEnd time.Time
	for _, iv := range clipped {
		if curEnd.IsZero() || iv.Start.After(curEnd) {
			total += iv.End.Sub(iv.Start)
			curEnd = iv.End
		} else if iv.End.After(curEnd) {
			total += iv.End.Sub(curEnd)
			curEnd = iv.End
		}
	}
	return total
}

// selfTimesByName groups Self by span name, one sample per request
// (spans of one name under one root are summed first).
func selfTimesByName(requests [][]span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, spans := range requests {
		perReq := make(map[string]time.Duration)
		for _, s := range spans {
			perReq[s.Name] += s.Self
		}
		for name, d := range perReq {
			out[name] = append(out[name], d)
		}
	}
	return out
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, Perfetto): ts and dur in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON. Each
// request's tree gets its own row group: tid 1 holds the client-side
// spans, tid 2 the ORAM server spans, so overlapping shard calls do
// not corrupt the nesting of the client row.
func writeChromeTrace(path string, requests [][]span) error {
	if len(requests) == 0 {
		return nil
	}
	epoch := requests[0][0].Start
	events := make([]chromeEvent, 0, len(requests)*6)
	for _, spans := range requests {
		for _, s := range spans {
			tid := 1
			if strings.HasPrefix(s.Name, "oram.") {
				tid = 2
			}
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
				Ts:  float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
				Dur: float64(s.duration()) / float64(time.Microsecond),
				Args: map[string]any{
					"id": s.ID, "parent": s.Parent,
					"self_us": float64(s.Self) / float64(time.Microsecond),
				},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
