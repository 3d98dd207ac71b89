package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"geodabs/internal/wire"
)

// latencyBuckets are the histogram upper bounds in seconds, chosen to
// resolve both the microsecond-scale local-index searches and the
// second-scale pathologies admission control exists to bound.
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram with atomic counters,
// safe for concurrent observation. Prometheus semantics: buckets are
// cumulative at exposition time, counts observed per bucket internally.
type histogram struct {
	counts [len(latencyBuckets) + 1]atomic.Uint64 // +1 for +Inf
	sumNS  atomic.Int64
	total  atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], s)
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.total.Add(1)
}

// quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation within the owning bucket, the same estimate a Prometheus
// histogram_quantile produces. Used by the bench harness and tests; the
// exposition endpoint ships the raw buckets instead.
func (h *histogram) quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if float64(seen+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = latencyBuckets[i-1]
			}
			hi := lo * 2
			if i < len(latencyBuckets) {
				hi = latencyBuckets[i]
			}
			if c == 0 {
				return hi
			}
			return lo + (hi-lo)*(rank-float64(seen))/float64(c)
		}
		seen += c
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// opMetrics is one op's request-side counters.
type opMetrics struct {
	// byStatus counts completed requests by wire status code.
	byStatus [8]atomic.Uint64
	latency  histogram
}

// Metrics is the server's Prometheus-style instrumentation: request
// counters by op and status, shed and connection counters, in-flight and
// queue gauges, and per-op latency histograms. All fields are atomics —
// the hot path never takes a lock to count.
type Metrics struct {
	ops [7]opMetrics // indexed by wire.Op (0 unused)

	connsOpened   atomic.Uint64
	connsRejected atomic.Uint64
	connsActive   atomic.Int64

	inFlight atomic.Int64
	queued   atomic.Int64
	// collector, when set, appends engine-specific exposition lines on
	// every scrape (see SetCollector).
	collector atomic.Pointer[func(w *strings.Builder)]
	// shed counts requests refused with StatusOverloaded; draining those
	// refused with StatusShuttingDown. Both are also visible in the
	// per-op status counters; these totals make the load-shedding story
	// one scrape glance.
	shed     atomic.Uint64
	draining atomic.Uint64
	badFrame atomic.Uint64
}

func (m *Metrics) op(op wire.Op) *opMetrics {
	if int(op) < 1 || int(op) >= len(m.ops) {
		return &m.ops[0]
	}
	return &m.ops[op]
}

// observe records one completed request.
func (m *Metrics) observe(op wire.Op, status wire.Status, d time.Duration) {
	om := m.op(op)
	if int(status) < len(om.byStatus) {
		om.byStatus[status].Add(1)
	}
	om.latency.observe(d)
}

// Shed returns how many requests admission control refused with
// StatusOverloaded.
func (m *Metrics) Shed() uint64 { return m.shed.Load() }

// Quantile estimates the q-quantile of an op's request latency in
// seconds, 0 when the op has not been observed.
func (m *Metrics) Quantile(op wire.Op, q float64) float64 {
	return m.op(op).latency.quantile(q)
}

// Requests returns how many requests of the op completed with the
// status.
func (m *Metrics) Requests(op wire.Op, status wire.Status) uint64 {
	om := m.op(op)
	if int(status) >= len(om.byStatus) {
		return 0
	}
	return om.byStatus[status].Load()
}

// WriteTo renders the Prometheus text exposition format (version 0.0.4).
func (m *Metrics) writeTo(w *strings.Builder) {
	fmt.Fprintf(w, "# HELP geodabsd_connections_opened_total Accepted client connections.\n# TYPE geodabsd_connections_opened_total counter\ngeodabsd_connections_opened_total %d\n", m.connsOpened.Load())
	fmt.Fprintf(w, "# HELP geodabsd_connections_rejected_total Connections refused at the accept gate (connection limit).\n# TYPE geodabsd_connections_rejected_total counter\ngeodabsd_connections_rejected_total %d\n", m.connsRejected.Load())
	fmt.Fprintf(w, "# HELP geodabsd_connections_active Currently open client connections.\n# TYPE geodabsd_connections_active gauge\ngeodabsd_connections_active %d\n", m.connsActive.Load())
	fmt.Fprintf(w, "# HELP geodabsd_in_flight_requests Requests currently executing.\n# TYPE geodabsd_in_flight_requests gauge\ngeodabsd_in_flight_requests %d\n", m.inFlight.Load())
	fmt.Fprintf(w, "# HELP geodabsd_queued_requests Requests admitted to the bounded wait queue, not yet executing.\n# TYPE geodabsd_queued_requests gauge\ngeodabsd_queued_requests %d\n", m.queued.Load())
	fmt.Fprintf(w, "# HELP geodabsd_shed_total Requests refused with OVERLOADED by admission control.\n# TYPE geodabsd_shed_total counter\ngeodabsd_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(w, "# HELP geodabsd_draining_refused_total Requests refused with SHUTTING_DOWN during drain.\n# TYPE geodabsd_draining_refused_total counter\ngeodabsd_draining_refused_total %d\n", m.draining.Load())
	fmt.Fprintf(w, "# HELP geodabsd_bad_frames_total Connections dropped on undecodable frames.\n# TYPE geodabsd_bad_frames_total counter\ngeodabsd_bad_frames_total %d\n", m.badFrame.Load())

	w.WriteString("# HELP geodabsd_requests_total Completed requests by op and status.\n# TYPE geodabsd_requests_total counter\n")
	for op := wire.Op(1); int(op) < len(m.ops); op++ {
		om := &m.ops[op]
		for st := range om.byStatus {
			if n := om.byStatus[st].Load(); n > 0 {
				fmt.Fprintf(w, "geodabsd_requests_total{op=%q,status=%q} %d\n", op.String(), wire.Status(st).String(), n)
			}
		}
	}

	w.WriteString("# HELP geodabsd_request_seconds Request latency by op.\n# TYPE geodabsd_request_seconds histogram\n")
	for op := wire.Op(1); int(op) < len(m.ops); op++ {
		h := &m.ops[op].latency
		if h.total.Load() == 0 {
			continue
		}
		var cum uint64
		for i, ub := range latencyBuckets[:] {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "geodabsd_request_seconds_bucket{op=%q,le=%q} %d\n", op.String(), strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "geodabsd_request_seconds_bucket{op=%q,le=\"+Inf\"} %d\n", op.String(), cum)
		fmt.Fprintf(w, "geodabsd_request_seconds_sum{op=%q} %g\n", op.String(), time.Duration(h.sumNS.Load()).Seconds())
		fmt.Fprintf(w, "geodabsd_request_seconds_count{op=%q} %d\n", op.String(), cum)
	}

	if fn := m.collector.Load(); fn != nil {
		(*fn)(w)
	}
}

// SetCollector registers fn to append extra Prometheus exposition lines
// at the end of every scrape — the hook cmd/geodabsd uses to export the
// backing cluster's durability gauges (WAL size, fsync latency, replica
// epoch lag) without the server package knowing the engine's shape. fn
// runs on the scrape goroutine and must be safe for concurrent use; nil
// removes the collector.
func (m *Metrics) SetCollector(fn func(w *strings.Builder)) {
	if fn == nil {
		m.collector.Store(nil)
		return
	}
	m.collector.Store(&fn)
}

// Handler returns the /metrics HTTP handler exposing the registry in the
// Prometheus text format. Mount it on any mux; cmd/geodabsd serves it on
// its -metrics-addr.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sb strings.Builder
		m.writeTo(&sb)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(sb.String()))
	})
}
