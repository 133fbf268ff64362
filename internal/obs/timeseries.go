package obs

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"
)

// TimeSeriesOptions tunes a TimeSeries sampler.
type TimeSeriesOptions struct {
	// Interval is the sampling period (≤ 0 means DefaultSampleInterval).
	// Start's ticker fires at this rate; tests drive Sample directly.
	Interval time.Duration
	// Window caps retained samples per series (≤ 0 means
	// DefaultSampleWindow). Memory is O(Window × series), fixed.
	Window int
	// MaxSeries caps tracked series; series appearing after the cap are
	// counted (bcq_timeseries_dropped_series_total) and ignored, so a
	// label-cardinality bug degrades the dashboard, never the process
	// (≤ 0 means DefaultMaxSeries).
	MaxSeries int
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

// Defaults for TimeSeriesOptions.
const (
	DefaultSampleInterval = 5 * time.Second
	DefaultSampleWindow   = 240 // 20 minutes at the default interval
	DefaultMaxSeries      = 1024
)

// TSPoint is one retained sample of one series. Counters store the
// windowed per-second rate between consecutive samples; gauges store the
// raw reading; histograms store the delta window's observation count and
// its p50/p95/p99 (computed from bucket-count differences, so the
// quantiles describe only the traffic of that interval, not the process
// lifetime).
type TSPoint struct {
	TS  int64   `json:"ts_ms"`
	V   float64 `json:"v"`
	N   int64   `json:"n,omitempty"`
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
}

// tsSeries is one tracked series: the previous cumulative state (what
// rates and delta quantiles diff against) plus a fixed-capacity point
// ring.
type tsSeries struct {
	name   string
	kind   string
	labels []Label

	seeded     bool
	lastTS     time.Time
	lastValue  float64
	lastCounts []int64

	points []TSPoint // ring, capacity = window
	head   int       // next write slot
	count  int
}

// push appends a point, overwriting the oldest at capacity.
func (s *tsSeries) push(p TSPoint) {
	if len(s.points) == 0 {
		return
	}
	s.points[s.head] = p
	s.head = (s.head + 1) % len(s.points)
	if s.count < len(s.points) {
		s.count++
	}
}

// snapshot returns the ring oldest-first, at most last points (0 = all).
func (s *tsSeries) snapshot(last int) []TSPoint {
	n := s.count
	if last > 0 && last < n {
		n = last
	}
	out := make([]TSPoint, n)
	for i := 0; i < n; i++ {
		// The i-th newest from the end, emitted oldest-first.
		idx := (s.head - n + i + len(s.points)*2) % len(s.points)
		out[i] = s.points[idx]
	}
	return out
}

// TimeSeries retains a short history of a Registry's instruments: on
// every tick it collects the registry and appends, per series, one point
// to a fixed-size ring — windowed rates for counters, raw values for
// gauges, delta-window p50/p95/p99 for histograms. Memory is bounded by
// Window × MaxSeries regardless of uptime or label cardinality, and the
// whole state is queryable as JSON (GET /debug/timeseries).
//
// A scrape shows cumulative counters — the current value of everything —
// but production debugging asks what changed in the last five minutes.
// The sampler is that retention tier: cheap enough to always run (one
// registry collect per tick, off every request path), bounded enough to
// never be the incident. Nil *TimeSeries no-ops every method.
type TimeSeries struct {
	reg       *Registry
	interval  time.Duration
	window    int
	maxSeries int
	now       func() time.Time

	mu      sync.Mutex
	series  map[string]*tsSeries
	order   []string // first-seen order, for stable JSON output
	samples int64
	dropped int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewTimeSeries builds a sampler over a registry and registers its
// self-metrics there (samples taken, series resident, series dropped at
// the cap). Nil registry → nil sampler.
func NewTimeSeries(reg *Registry, opts TimeSeriesOptions) *TimeSeries {
	if reg == nil {
		return nil
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultSampleInterval
	}
	if opts.Window <= 0 {
		opts.Window = DefaultSampleWindow
	}
	if opts.MaxSeries <= 0 {
		opts.MaxSeries = DefaultMaxSeries
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	ts := &TimeSeries{
		reg:       reg,
		interval:  opts.Interval,
		window:    opts.Window,
		maxSeries: opts.MaxSeries,
		now:       opts.Now,
		series:    make(map[string]*tsSeries),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	reg.CounterFunc("bcq_timeseries_samples_total",
		"Registry samples taken by the time-series retention tier.",
		func() float64 { ts.mu.Lock(); defer ts.mu.Unlock(); return float64(ts.samples) })
	reg.CounterFunc("bcq_timeseries_dropped_series_total",
		"Series ignored because the sampler's MaxSeries cap was reached.",
		func() float64 { ts.mu.Lock(); defer ts.mu.Unlock(); return float64(ts.dropped) })
	reg.GaugeFunc("bcq_timeseries_series",
		"Series the sampler currently retains points for.",
		func() float64 { ts.mu.Lock(); defer ts.mu.Unlock(); return float64(len(ts.series)) })
	return ts
}

// Interval returns the sampling period (0 on nil).
func (ts *TimeSeries) Interval() time.Duration {
	if ts == nil {
		return 0
	}
	return ts.interval
}

// Start launches the background ticker. Safe to call once; Stop ends it.
// Nil-safe.
func (ts *TimeSeries) Start() {
	if ts == nil {
		return
	}
	go func() {
		defer close(ts.done)
		tick := time.NewTicker(ts.interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				ts.Sample()
			case <-ts.stop:
				return
			}
		}
	}()
}

// Stop ends the background ticker (idempotent, nil-safe). It does not
// discard retained points.
func (ts *TimeSeries) Stop() {
	if ts == nil {
		return
	}
	ts.stopOnce.Do(func() {
		close(ts.stop)
		<-ts.done
	})
}

// Sample collects the registry once and appends one point per tracked
// series. The first sight of a series only seeds its cumulative state
// (a rate needs two observations). Exported so tests — and fake-clock
// callers — can drive the sampler deterministically; Start calls it on
// the ticker. Nil-safe.
func (ts *TimeSeries) Sample() {
	if ts == nil {
		return
	}
	snaps := ts.reg.Collect()
	now := ts.now()

	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.samples++
	for i := range snaps {
		snap := &snaps[i]
		key := snap.Key()
		ser, ok := ts.series[key]
		if !ok {
			if len(ts.series) >= ts.maxSeries {
				ts.dropped++
				continue
			}
			ser = &tsSeries{
				name:   snap.Name,
				kind:   snap.Kind,
				labels: snap.Labels,
				points: make([]TSPoint, ts.window),
			}
			ts.series[key] = ser
			ts.order = append(ts.order, key)
		}
		ts.observe(ser, snap, now)
	}
}

// RetainedBytes counts the bytes the sampler keeps between samples: per
// series its record, its point ring, its labels and the bucket counts it
// diffs against, and the key list. It is computed from lengths and
// capacities, not read off the heap, so the same history reads the same
// on every run; once every ring is full it stops growing. Nil-safe.
func (ts *TimeSeries) RetainedBytes() int64 {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n := int64(cap(ts.order)) * int64(unsafe.Sizeof(""))
	for key, ser := range ts.series {
		n += int64(len(key)) + int64(unsafe.Sizeof(*ser)) +
			int64(cap(ser.points))*int64(unsafe.Sizeof(TSPoint{})) +
			int64(cap(ser.labels))*int64(unsafe.Sizeof(Label{})) +
			int64(cap(ser.lastCounts))*int64(unsafe.Sizeof(int64(0)))
	}
	return n
}

// observe diffs one series against its previous cumulative state and
// appends the resulting point.
func (ts *TimeSeries) observe(ser *tsSeries, snap *SeriesSnapshot, now time.Time) {
	defer func() {
		ser.seeded = true
		ser.lastTS = now
		ser.lastValue = snap.Value
		ser.lastCounts = snap.Counts
	}()
	if !ser.seeded {
		return
	}
	dt := now.Sub(ser.lastTS).Seconds()
	if dt <= 0 {
		dt = ts.interval.Seconds()
	}
	p := TSPoint{TS: now.UnixMilli()}
	switch ser.kind {
	case "counter":
		delta := snap.Value - ser.lastValue
		if delta < 0 { // monotone in theory; guard a re-registered bridge
			delta = 0
		}
		p.V = delta / dt
	case "gauge":
		p.V = snap.Value
	case "histogram":
		if len(ser.lastCounts) == len(snap.Counts) {
			delta := make([]int64, len(snap.Counts))
			var n int64
			for i := range snap.Counts {
				d := snap.Counts[i] - ser.lastCounts[i]
				if d < 0 {
					d = 0
				}
				delta[i] = d
				n += d
			}
			p.N = n
			p.V = float64(n) / dt
			if n > 0 {
				p.P50 = QuantileFromCounts(snap.Bounds, delta, 0.50)
				p.P95 = QuantileFromCounts(snap.Bounds, delta, 0.95)
				p.P99 = QuantileFromCounts(snap.Bounds, delta, 0.99)
			}
		}
	}
	ser.push(p)
}

// TSSeriesJSON is one series in the /debug/timeseries document.
type TSSeriesJSON struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Points []TSPoint         `json:"points"`
}

// TSDocument is the /debug/timeseries payload.
type TSDocument struct {
	IntervalMS    int64          `json:"interval_ms"`
	Window        int            `json:"window"`
	Samples       int64          `json:"samples"`
	SeriesCount   int            `json:"series_resident"`
	SeriesDropped int64          `json:"series_dropped"`
	Series        []TSSeriesJSON `json:"series"`
}

// Document renders the retained history: every tracked series whose name
// has the given prefix ("" = all), at most last points each (0 = all),
// oldest-first. Series order is stable (first-seen, which Collect makes
// deterministic). Nil-safe (empty document).
func (ts *TimeSeries) Document(namePrefix string, last int) TSDocument {
	if ts == nil {
		return TSDocument{}
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	doc := TSDocument{
		IntervalMS:    ts.interval.Milliseconds(),
		Window:        ts.window,
		Samples:       ts.samples,
		SeriesCount:   len(ts.series),
		SeriesDropped: ts.dropped,
		Series:        []TSSeriesJSON{},
	}
	for _, key := range ts.order {
		ser := ts.series[key]
		if namePrefix != "" && !strings.HasPrefix(ser.name, namePrefix) {
			continue
		}
		sj := TSSeriesJSON{Name: ser.name, Kind: ser.kind, Points: ser.snapshot(last)}
		if len(ser.labels) > 0 {
			sj.Labels = make(map[string]string, len(ser.labels))
			for _, l := range ser.labels {
				sj.Labels[l.Name] = l.Value
			}
		}
		doc.Series = append(doc.Series, sj)
	}
	sort.SliceStable(doc.Series, func(i, j int) bool { return doc.Series[i].Name < doc.Series[j].Name })
	return doc
}

// JSON is Document marshaled (nil-safe; "{}" shape with zero fields).
func (ts *TimeSeries) JSON(namePrefix string, last int) []byte {
	b, err := json.Marshal(ts.Document(namePrefix, last))
	if err != nil {
		return []byte("{}")
	}
	return b
}
