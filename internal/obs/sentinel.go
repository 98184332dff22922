package obs

import (
	"fmt"
	"log/slog"
	"sync"
)

// Leak sentinels watch the runtime collector's retained samples for the
// three failure shapes a long-running warehouse process actually exhibits:
// goroutine leaks (a session or worker path that never exits), heap leaks
// (retained result sets, an unbounded cache), and scratch-pool churn (the
// pool stops recycling and every scan allocates fresh). Each sentinel fires
// with hysteresis — an alert is recorded on the firing and clearing
// transitions only, never re-emitted while the condition persists — so a
// slow leak produces one actionable alert, not a page per sample.
//
// Alerts land in a bounded ring served as pc.alerts and, when a logger is
// wired, as one structured log line per transition.

// Sentinel names (pc.alerts.sentinel).
const (
	SentinelGoroutines = "goroutine_growth"
	SentinelHeap       = "heap_growth"
	SentinelPoolChurn  = "pool_churn"
)

// Alert states (pc.alerts.state).
const (
	AlertFiring  = "firing"
	AlertCleared = "cleared"
)

// Alert is one sentinel transition: the watched value crossed its threshold
// (firing) or fell back below half of it (cleared).
type Alert struct {
	TSMicros  int64  `json:"ts_micros"`
	Sentinel  string `json:"sentinel"`
	State     string `json:"state"`
	Value     int64  `json:"value"`
	Threshold int64  `json:"threshold"`
	Detail    string `json:"detail"`
}

// defaultAlertCapacity bounds the alert ring; transitions are rare, so a
// small ring holds a long history.
const defaultAlertCapacity = 256

// AlertLog is a bounded ring of alerts, oldest overwritten first. Safe for
// concurrent use; nil-safe like the rest of the package.
type AlertLog struct {
	mu    sync.Mutex
	ring  []Alert // guarded by mu
	next  int     // guarded by mu
	n     int     // guarded by mu
	total int64   // guarded by mu; alerts ever recorded
}

// NewAlertLog builds a ring holding the most recent capacity alerts (<= 0
// selects the default).
func NewAlertLog(capacity int) *AlertLog {
	if capacity <= 0 {
		capacity = defaultAlertCapacity
	}
	return &AlertLog{ring: make([]Alert, capacity)}
}

// Record appends one alert, overwriting the oldest when full.
func (l *AlertLog) Record(a Alert) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ring[l.next] = a
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.total++
	l.mu.Unlock()
}

// Alerts returns the retained alerts, oldest first.
func (l *AlertLog) Alerts() []Alert {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Alert, 0, l.n)
	start := l.next - l.n
	if start < 0 {
		start += len(l.ring)
	}
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[(start+i)%len(l.ring)])
	}
	return out
}

// Len returns the number of retained alerts.
func (l *AlertLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Total returns the number of alerts ever recorded.
func (l *AlertLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// SentinelConfig sets the watchdog thresholds. The zero value selects the
// defaults below; Window is the number of consecutive runtime samples a
// condition must span before it can fire (growth sentinels additionally
// require the watched value to be monotone over the window, so a spiky but
// reclaiming workload never trips them).
type SentinelConfig struct {
	// Window is the sample count evaluated per check (default 5; at the
	// default 1s cadence a leak must persist ~5s to fire).
	Window int
	// GoroutineGrowth fires when goroutines grow monotonically by at least
	// this many over the window (default 200).
	GoroutineGrowth int64
	// HeapGrowthBytes fires when HeapAlloc grows monotonically by at least
	// this many bytes over the window (default 256 MiB).
	HeapGrowthBytes int64
	// PoolChurnRatio fires when news/gets over the window reaches this
	// fraction (default 0.5) with at least PoolChurnMinGets gets observed
	// (default 1000) — the scratch pool has stopped recycling.
	PoolChurnRatio   float64
	PoolChurnMinGets int64
}

// withDefaults fills zero fields.
func (c SentinelConfig) withDefaults() SentinelConfig {
	if c.Window <= 1 {
		c.Window = 5
	}
	if c.GoroutineGrowth <= 0 {
		c.GoroutineGrowth = 200
	}
	if c.HeapGrowthBytes <= 0 {
		c.HeapGrowthBytes = 256 << 20
	}
	if c.PoolChurnRatio <= 0 {
		c.PoolChurnRatio = 0.5
	}
	if c.PoolChurnMinGets <= 0 {
		c.PoolChurnMinGets = 1000
	}
	return c
}

// Sentinels evaluates the watchdogs over sample windows and records
// transitions. A nil *Sentinels is valid and checks nothing.
type Sentinels struct {
	cfg SentinelConfig
	log *AlertLog
	// logger receives a line per transition; nil drops the lines (the
	// pc.alerts ring still records).
	logger *slog.Logger

	mu     sync.Mutex
	active map[string]bool // guarded by mu; sentinel name -> firing
}

// NewSentinels builds the watchdog set. alerts receives the transitions
// (may be nil to drop them); logger may be nil.
func NewSentinels(cfg SentinelConfig, alerts *AlertLog, logger *slog.Logger) *Sentinels {
	return &Sentinels{
		cfg:    cfg.withDefaults(),
		log:    alerts,
		logger: logger,
		active: make(map[string]bool),
	}
}

// Window returns the configured evaluation window.
func (s *Sentinels) Window() int {
	if s == nil {
		return 0
	}
	return s.cfg.Window
}

// Evaluate checks every sentinel against win (oldest first) and records any
// state transitions. Windows shorter than the configured size are skipped —
// the collector has not retained enough history yet.
func (s *Sentinels) Evaluate(win []RuntimeSample) {
	if s == nil || len(win) < s.cfg.Window {
		return
	}
	win = win[len(win)-s.cfg.Window:]
	first, last := win[0], win[len(win)-1]

	growth := func(field func(RuntimeSample) int64) (delta int64, monotone bool) {
		monotone = true
		for i := 1; i < len(win); i++ {
			if field(win[i]) < field(win[i-1]) {
				monotone = false
				break
			}
		}
		return field(last) - field(first), monotone
	}

	gDelta, gMono := growth(func(r RuntimeSample) int64 { return r.Goroutines })
	s.transition(SentinelGoroutines, last.TSMicros, gDelta, s.cfg.GoroutineGrowth,
		gMono && gDelta >= s.cfg.GoroutineGrowth,
		fmt.Sprintf("goroutines %d -> %d over %d samples", first.Goroutines, last.Goroutines, len(win)))

	hDelta, hMono := growth(func(r RuntimeSample) int64 { return r.HeapAllocBytes })
	s.transition(SentinelHeap, last.TSMicros, hDelta, s.cfg.HeapGrowthBytes,
		hMono && hDelta >= s.cfg.HeapGrowthBytes,
		fmt.Sprintf("heap_alloc %d -> %d bytes over %d samples", first.HeapAllocBytes, last.HeapAllocBytes, len(win)))

	dGets := last.PoolGets - first.PoolGets
	dNews := last.PoolNews - first.PoolNews
	ratioPct := int64(0)
	if dGets > 0 {
		ratioPct = dNews * 100 / dGets
	}
	s.transition(SentinelPoolChurn, last.TSMicros, ratioPct, int64(s.cfg.PoolChurnRatio*100),
		dGets >= s.cfg.PoolChurnMinGets && float64(dNews) >= s.cfg.PoolChurnRatio*float64(dGets),
		fmt.Sprintf("pool news/gets %d/%d over %d samples", dNews, dGets, len(win)))
}

// transition applies hysteresis: record a firing alert on the first check
// that exceeds the threshold, then nothing until the value falls to half the
// threshold or below, which records the clearing alert.
func (s *Sentinels) transition(name string, ts, value, threshold int64, over bool, detail string) {
	s.mu.Lock()
	wasActive := s.active[name]
	var a Alert
	emit := false
	switch {
	case over && !wasActive:
		s.active[name] = true
		a = Alert{TSMicros: ts, Sentinel: name, State: AlertFiring, Value: value, Threshold: threshold, Detail: detail}
		emit = true
	case wasActive && value <= threshold/2:
		s.active[name] = false
		a = Alert{TSMicros: ts, Sentinel: name, State: AlertCleared, Value: value, Threshold: threshold, Detail: detail}
		emit = true
	}
	s.mu.Unlock()
	if !emit {
		return
	}
	s.log.Record(a)
	if s.logger == nil {
		return
	}
	if a.State == AlertFiring {
		s.logger.Warn("sentinel firing",
			"sentinel", a.Sentinel, "value", a.Value, "threshold", a.Threshold, "detail", a.Detail)
	} else {
		s.logger.Info("sentinel cleared",
			"sentinel", a.Sentinel, "value", a.Value, "threshold", a.Threshold, "detail", a.Detail)
	}
}

// Active reports whether the named sentinel is currently firing.
func (s *Sentinels) Active(name string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active[name]
}
