package main

import (
	"math"
	"slices"
	"time"
)

// outcome is one request (a chat completion or a whole agent/KV session)
// as the client saw it. Every time is virtual, measured on the engine's
// simulated clock from the request's due time.
type outcome struct {
	due       time.Duration // when the generator was scheduled to send it
	firstSeen time.Duration // first output token observed by the client
	done      time.Duration // request/session completed (or failed)
	gapSum    time.Duration // sum of token gaps within generations
	gaps      int           // number of token gaps within generations
	tokens    int           // output tokens the client received
	want      int           // output tokens the request asked for
	measured  bool          // due inside the measured phase (not warm-up)
	err       error
}

func (o *outcome) ok() bool { return o.err == nil && o.done > 0 }

// meanGap is the request's mean inter-token latency: the mean of its
// token gaps within generations, 0 for single-token requests.
func (o *outcome) meanGap() time.Duration {
	if o.gaps == 0 {
		return 0
	}
	return o.gapSum / time.Duration(o.gaps)
}

// slo is a workload's latency contract: a request meets it when its TTFT
// and its mean inter-token gap are both within the limits.
type slo struct {
	TTFT time.Duration
	ITL  time.Duration
}

// sustainShare is the fraction of requests that must meet the SLO for a
// rate to count as sustained (max_rate_rps).
const sustainShare = 0.9

func (s slo) met(o *outcome) bool {
	return o.ok() && o.firstSeen-o.due <= s.TTFT && o.meanGap() <= s.ITL
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// method. xs is sorted in place; an empty input returns 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// legSummary is the virtual-time summary of one fixed-rate leg.
type legSummary struct {
	rate      float64
	attempted int     // measured requests sent
	good      int     // measured requests meeting the SLO
	window    float64 // virtual seconds over which measured requests arrived
	tokens    int     // output tokens accepted in the measured phase
	backlog   bool    // the backlog grew over the leg
	ttft      []float64
	latency   []float64
	itl       []float64 // per-token gaps (ms), or per-request means
}

// sloShare is the fraction of measured requests meeting the SLO; failed
// and refused requests count as misses.
func (l *legSummary) sloShare() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.good) / float64(l.attempted)
}

// sustained reports whether the leg's rate holds the SLO share without a
// growing backlog.
func (l *legSummary) sustained() bool { return !l.backlog && l.sloShare() >= sustainShare }

// summarize folds a leg's outcomes into a legSummary. itl holds the
// leg's inter-token latency samples (ms) of measured requests, as the
// runner could observe them.
func summarize(rate float64, outs []outcome, itl []float64, s slo) *legSummary {
	l := &legSummary{rate: rate, itl: itl}
	first, last := time.Duration(-1), time.Duration(0)
	for i := range outs {
		o := &outs[i]
		if !o.measured {
			continue
		}
		l.attempted++
		if first < 0 {
			first = o.due
		}
		last = o.due
		if !o.ok() {
			continue
		}
		l.tokens += o.tokens
		l.ttft = append(l.ttft, ms(o.firstSeen-o.due))
		l.latency = append(l.latency, ms(o.done-o.due))
		if s.met(o) {
			l.good++
		}
	}
	if last > first {
		l.window = (last - first).Seconds()
	}
	l.backlog = backlogGrew(outs)
	return l
}

// backlogGrew reports whether requests piled up over the leg: the mean
// latency of the last quarter of measured requests (in arrival order) is
// more than 1.5x that of the second quarter. A stable open loop keeps
// latency stationary; an overloaded one grows it with every arrival.
func backlogGrew(outs []outcome) bool {
	var lat []float64
	for i := range outs {
		if o := &outs[i]; o.measured && o.ok() {
			lat = append(lat, ms(o.done-o.due))
		}
	}
	q := len(lat) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	return mean(lat[3*q:]) > 1.5*mean(lat[q:2*q])
}

// maxRate is the highest fixed rate whose leg is sustained, or 0 when
// none is.
func maxRate(legs []*legSummary) float64 {
	best := 0.0
	for _, l := range legs {
		if l.sustained() && l.rate > best {
			best = l.rate
		}
	}
	return best
}

// merge pools the samples of several legs run at the same rate.
func merge(legs []*legSummary) *legSummary {
	out := &legSummary{rate: legs[0].rate}
	for _, l := range legs {
		out.attempted += l.attempted
		out.good += l.good
		out.window += l.window
		out.tokens += l.tokens
		out.backlog = out.backlog || l.backlog
		out.ttft = append(out.ttft, l.ttft...)
		out.latency = append(out.latency, l.latency...)
		out.itl = append(out.itl, l.itl...)
	}
	return out
}

// median returns the median of xs (sorted in place), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
