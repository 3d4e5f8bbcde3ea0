package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanName identifies what a span times. Spans store the index rather
// than the string, so a traced leg's span slice holds no pointers and
// costs the garbage collector nothing to scan.
type spanName uint8

const (
	spSetupEngine   spanName = iota // host: engine build
	spSetupRegister                 // host: program and tool registration
	spRun                           // host: the simulation run
	spRequest                       // due -> done
	spILMStart                      // Launch -> first inferlet instruction
	spCtlOpen                       // control calls: context (queue) open
	spCtlImport
	spCtlExport
	spCtlClose
	spForward       // Pie: the forward (and sample) that produced one token
	spTool          // HTTPGet to an external service
	spEngineRequest // vLLM: submit -> finished of one engine request
)

var spanNames = [...]string{"setup.engine", "setup.register", "run", "request", "ilm.start",
	"ctl.open", "ctl.import", "ctl.export", "ctl.close", "forward", "tool", "engine.request"}

func (n spanName) String() string { return spanNames[n] }

func (n spanName) control() bool { return n >= spCtlOpen && n <= spCtlClose }

// span is one traced interval. Harness phases (setup, register, run) are
// on the host clock, measured from process start; everything inside a
// simulation (requests, inferlet calls) is on that engine's virtual clock.
type span struct {
	name       spanName
	host       bool
	start, end int64 // ns
	parent     int32 // index of the enclosing span, -1 for none
	req        int32 // request id, -1 outside requests
}

// tracer keeps one leg's spans in memory until the run ends. A nil
// *tracer is the untraced mode: every method returns at once and
// allocates nothing.
type tracer struct {
	spans []span
	pass  int
}

func (t *tracer) add(name spanName, host bool, start, end time.Duration, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, host, int64(start), int64(end), int32(parent), int32(req)})
	return len(t.spans) - 1
}

// virt records a virtual-time span and returns its index (a parent for
// later spans); on a nil tracer it returns -1.
func (t *tracer) virt(name spanName, start, end time.Duration, parent, req int) int {
	return t.add(name, false, start, end, parent, req)
}

// phase records a harness phase on the host clock.
func (t *tracer) phase(name spanName, start, end time.Time) {
	t.add(name, true, start.Sub(processStart), end.Sub(processStart), -1, -1)
}

// end closes a span opened with an end equal to its start.
func (t *tracer) end(i int, end time.Duration) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(end)
}

// writeSpans stores the legs' spans as JSON lines; parent indices are
// made global across legs.
func writeSpans(path string, legs []*legResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, l := range legs {
		for _, s := range l.tr.spans {
			clock, parent := "virtual", int(s.parent)
			if s.host {
				clock = "host"
			}
			if parent >= 0 {
				parent += base
			}
			rec := struct {
				Name   string  `json:"name"`
				Clock  string  `json:"clock"`
				Start  int64   `json:"start_ns"`
				End    int64   `json:"end_ns"`
				Parent int     `json:"parent"`
				Req    int32   `json:"req"`
				Pass   int     `json:"pass"`
				Rate   float64 `json:"rate"`
			}{s.name.String(), clock, s.start, s.end, parent, s.req, l.tr.pass, l.in.rate}
			if err := enc.Encode(&rec); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
		base += len(l.tr.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
