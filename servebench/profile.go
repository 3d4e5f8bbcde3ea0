package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// Host-time attribution. A CPU profile of the traced run is read back
// with `go tool pprof -raw` after the run, and each sample is charged to
// the innermost frame of this system's code, mapped to its layer. Frames
// of the benchmark itself (package main) are charged to "bench"; samples
// with neither (GC workers, the scheduler) go to "runtime".

// layers lists every bucket a sample can land in, in report order.
var layers = []string{"sim", "core", "infer", "model", "ilm", "cluster", "netsim", "baseline", "bench", "other", "runtime"}

// layerOf maps a package path of this module to its layer; "" for code
// outside the module.
var layerOf = map[string]string{
	"pie/internal/sim":       "sim",
	"pie/internal/core":      "core",
	"pie/internal/metrics":   "core",
	"pie/internal/infer":     "infer",
	"pie/internal/gpu":       "infer",
	"pie/internal/tokenizer": "infer",
	"pie/internal/grammar":   "infer",
	"pie/internal/model":     "model",
	"pie/internal/tensor":    "model",
	"pie":                    "ilm",
	"pie/internal/ilm":       "ilm",
	"pie/inferlet":           "ilm",
	"pie/api":                "ilm",
	"pie/support":            "ilm",
	"pie/apps":               "ilm",
	"pie/internal/cluster":   "cluster",
	"pie/internal/fleet":     "cluster",
	"pie/internal/netsim":    "netsim",
	"pie/internal/baseline":  "baseline",
}

// pkgOf extracts the package path from a symbolized Go function name,
// e.g. "pie/internal/sim.(*Future[...]).Get" -> "pie/internal/sim".
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer classifies one frame: its layer, or "" when the frame is
// outside both this module and the benchmark.
func frameLayer(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case pkg == "main":
		return "bench"
	case pkg == "pie" || strings.HasPrefix(pkg, "pie/"):
		if l, ok := layerOf[pkg]; ok {
			return l
		}
		if strings.HasPrefix(pkg, "pie/inferlet/") {
			return "ilm"
		}
		return "other"
	}
	return ""
}

// attribute charges a stack (leaf first) to its innermost layer frame.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// rawSample is one sample of a `pprof -raw` dump: its CPU nanoseconds and
// the symbolized stack, leaf first (inlined frames expanded).
type rawSample struct {
	ns    int64
	stack []string
}

// parseRaw reads the text `go tool pprof -raw` prints: a Samples section
// ("count ns: loc loc ...") and a Locations section where each location
// lists its inlined functions innermost first, continuation lines
// indented without an id.
func parseRaw(r io.Reader) ([]rawSample, error) {
	type pending struct {
		ns   int64
		locs []int
	}
	var samples []pending
	locs := map[int][]string{}
	section, cur := "", -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSuffix(strings.TrimSpace(line), ":")
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch section {
		case "Samples":
			if len(fields) < 2 || !strings.HasSuffix(fields[1], ":") {
				continue // the column header
			}
			ns, err := strconv.ParseInt(strings.TrimSuffix(fields[1], ":"), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof sample %q: %w", line, err)
			}
			p := pending{ns: ns}
			for _, f := range fields[2:] {
				id, err := strconv.Atoi(f)
				if err != nil {
					break // labels follow the location ids
				}
				p.locs = append(p.locs, id)
			}
			samples = append(samples, p)
		case "Locations":
			if strings.HasSuffix(fields[0], ":") {
				id, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":"))
				if err != nil {
					return nil, fmt.Errorf("pprof location %q: %w", line, err)
				}
				cur = id
				if len(fields) >= 4 {
					locs[id] = append(locs[id], fields[3])
				}
			} else if cur >= 0 {
				locs[cur] = append(locs[cur], fields[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]rawSample, len(samples))
	for i, p := range samples {
		out[i].ns = p.ns
		for _, id := range p.locs {
			out[i].stack = append(out[i].stack, locs[id]...)
		}
	}
	return out, nil
}

// layerShares returns each layer's fraction of the profiled CPU time.
func layerShares(samples []rawSample) map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		by[attribute(s.stack)] += s.ns
		total += s.ns
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = float64(by[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}

// profileLayers dumps a CPU profile with `go tool pprof -raw` and returns
// the per-layer shares plus the total CPU seconds sampled.
func profileLayers(path string) (map[string]float64, float64, error) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	out, err := exec.Command(gobin, "tool", "pprof", "-raw", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -raw %s: %w", path, err)
	}
	samples, err := parseRaw(strings.NewReader(string(out)))
	if err != nil {
		return nil, 0, err
	}
	var ns int64
	for _, s := range samples {
		ns += s.ns
	}
	return layerShares(samples), float64(ns) / 1e9, nil
}
