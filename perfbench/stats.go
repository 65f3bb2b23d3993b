package main

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/wire"
)

// minBeyond is the least number of samples that must lie beyond a
// reported tail percentile.
const minBeyond = 10

// tail returns the nearest-rank q-quantile of sorted samples and how
// many samples lie strictly beyond its rank.
func tail(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	value = loadgen.Percentile(sorted, q)
	rank := int(q*float64(n) + 0.9999999)
	return value, n - min(max(rank, 1), n)
}

// The host only ever slows a run down: other tenants' bursts stretch
// latencies, cut throughput and inflate CPU time for seconds at a
// time, never the reverse.  So each timed metric is computed per
// window of the run, and the reported value is the quartile of the
// windows on the fast side: the first quartile of latencies and CPU
// costs, the third of throughputs.  A change to the program moves
// every window, the quiet ones too; a host stall moves only the
// windows it lands in.  (Like timeit's advice to take the fastest
// repeat, but keeping a quarter of the run rather than one window.)

// latencyWindow is the least sample count of one latency window.
const latencyWindow = 1000

// quietLatency splits samples, in send order, into equal consecutive
// windows of at least latencyWindow samples, takes the nearest-rank
// q-quantile of each, and returns the first quartile of those.
func quietLatency(inOrder []float64, q float64) float64 {
	return quantile(windowQuantiles(inOrder, q), 0.25)
}

// windowQuantiles is the q-quantile of each window quietLatency
// takes the first quartile of.
func windowQuantiles(inOrder []float64, q float64) []float64 {
	n := max(len(inOrder)/latencyWindow, 1)
	out := make([]float64, n)
	for i := range out {
		w := append([]float64(nil), inOrder[i*len(inOrder)/n:(i+1)*len(inOrder)/n]...)
		sort.Float64s(w)
		out[i], _ = tail(w, q)
	}
	return out
}

// perSecond splits the settle times of a phase into as many
// consecutive runs of equal count as the phase lasted whole seconds,
// and returns the third quartile of their rates: each run's count
// over the time from the previous run's last settle (the phase start
// for the first) to its own last.
func perSecond(ats []time.Duration, elapsed time.Duration) float64 {
	s := append([]time.Duration(nil), ats...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	n := min(max(int(elapsed/time.Second), 1), len(s))
	var rates []float64
	for i := range n {
		lo, hi := i*len(s)/n, (i+1)*len(s)/n
		var from time.Duration
		if lo > 0 {
			from = s[lo-1]
		}
		if d := s[hi-1] - from; d > 0 {
			rates = append(rates, float64(hi-lo)/d.Seconds())
		}
	}
	return quantile(rates, 0.75)
}

// quantile is the nearest-rank q-quantile of unsorted values (0 for
// none).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return loadgen.Percentile(s, q)
}

// median is the nearest-rank median of unsorted values (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// accounting splits a run's attempted requests into the two answers a
// well-formed request can get — a schedule, or the scheduler's verdict
// that the loop has none, further split by failure cause — and the
// failures, by wire error code.  An unschedulable verdict is an answer:
// the output check holds each key to one verdict and one cause, so it
// is the program's deterministic result for that key, not a failed
// operation.  Failures are what got no such answer: load shedding,
// deadlines, lost connections, errors a valid request must not get.
type accounting struct {
	attempted, scheduled, unschedulable int
	byCause                             map[string]int
	failures                            map[string]int
}

func account(outs []outcome) accounting {
	a := accounting{byCause: map[string]int{}, failures: map[string]int{}}
	for _, o := range outs {
		a.attempted++
		switch o.code {
		case "":
			a.scheduled++
		case wire.CodeUnschedulable:
			a.unschedulable++
			a.byCause[causeOf(o.message)]++
		default:
			a.failures[o.code]++
		}
	}
	return a
}

// answered reports whether a request with this outcome code got an
// answer: a schedule ("") or the unschedulable verdict.
func answered(code string) bool { return code == "" || code == wire.CodeUnschedulable }

// failed sums the failures over their codes.
func (a accounting) failed() int {
	n := 0
	for _, c := range a.failures {
		n += c
	}
	return n
}

// check enforces attempted == scheduled + unschedulable + Σ failures
// by code, and that the cause breakdown covers exactly the
// unschedulable answers.
func (a accounting) check() error {
	if sum := a.scheduled + a.unschedulable + a.failed(); sum != a.attempted {
		return fmt.Errorf("accounting: attempted %d != scheduled %d + unschedulable %d + failed %d",
			a.attempted, a.scheduled, a.unschedulable, a.failed())
	}
	causes := 0
	for _, n := range a.byCause {
		causes += n
	}
	if causes != a.unschedulable {
		return fmt.Errorf("accounting: %d unschedulable answers but %d with a cause", a.unschedulable, causes)
	}
	return nil
}

func (a accounting) String() string {
	return fmt.Sprintf("attempted %d scheduled %d unschedulable %d by cause %s failed %d by code %s",
		a.attempted, a.scheduled, a.unschedulable, sortedCounts(a.byCause), a.failed(), sortedCounts(a.failures))
}

// sortedCounts prints a count map in key order.
func sortedCounts(m map[string]int) string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// causesRE finds the failure-cause histogram a sched.Error message
// carries, e.g. "causes: map[fu:3 reg:12]".
var causesRE = regexp.MustCompile(`causes: map\[([^\]]*)\]`)

// causeOf names an unschedulable failure by its most frequent
// scheduler cause, spelling sched's "comm" as "bus"; "unknown" when
// the message carries no histogram.
func causeOf(message string) string {
	m := causesRE.FindStringSubmatch(message)
	if m == nil {
		return "unknown"
	}
	best, bestN := "unknown", -1
	for _, kv := range strings.Fields(m[1]) {
		name, count, ok := strings.Cut(kv, ":")
		n, err := strconv.Atoi(count)
		if !ok || err != nil {
			continue
		}
		if n > bestN || (n == bestN && name < best) {
			best, bestN = name, n
		}
	}
	if best == "comm" {
		return "bus"
	}
	return best
}
