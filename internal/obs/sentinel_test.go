package obs

import (
	"testing"
	"time"
)

// growthWindow builds a Window-sized sample window whose goroutine count
// grows by step per sample starting at base.
func growthWindow(n int, base, step int64) []RuntimeSample {
	out := make([]RuntimeSample, n)
	for i := range out {
		out[i] = RuntimeSample{
			TSMicros:   int64(i + 1),
			Goroutines: base + int64(i)*step,
		}
	}
	return out
}

func alertsFor(log *AlertLog, sentinel string) []Alert {
	var out []Alert
	for _, a := range log.Alerts() {
		if a.Sentinel == sentinel {
			out = append(out, a)
		}
	}
	return out
}

func TestSentinelGoroutineGrowthFiresOnceThenClears(t *testing.T) {
	log := NewAlertLog(0)
	s := NewSentinels(SentinelConfig{Window: 5, GoroutineGrowth: 100}, log, nil)

	// Monotone growth of 200 over the window: one firing transition.
	s.Evaluate(growthWindow(5, 10, 50))
	got := alertsFor(log, SentinelGoroutines)
	if len(got) != 1 || got[0].State != AlertFiring {
		t.Fatalf("after growth window: alerts = %+v, want one firing", got)
	}
	if got[0].Value != 200 || got[0].Threshold != 100 {
		t.Fatalf("firing alert value/threshold = %d/%d, want 200/100", got[0].Value, got[0].Threshold)
	}
	if !s.Active(SentinelGoroutines) {
		t.Fatal("sentinel should be active after firing")
	}

	// Still growing: hysteresis suppresses a second alert.
	s.Evaluate(growthWindow(5, 210, 50))
	if got := alertsFor(log, SentinelGoroutines); len(got) != 1 {
		t.Fatalf("persistent growth re-fired: %d alerts, want 1", len(got))
	}

	// Between half and full threshold: neither fires nor clears.
	s.Evaluate(growthWindow(5, 400, 20)) // delta 80, threshold/2 = 50
	if got := alertsFor(log, SentinelGoroutines); len(got) != 1 {
		t.Fatalf("mid-band window transitioned: %d alerts, want 1", len(got))
	}
	if !s.Active(SentinelGoroutines) {
		t.Fatal("sentinel should stay active in the hysteresis band")
	}

	// Flat window (delta 0 <= threshold/2): clears exactly once.
	s.Evaluate(growthWindow(5, 400, 0))
	got = alertsFor(log, SentinelGoroutines)
	if len(got) != 2 || got[1].State != AlertCleared {
		t.Fatalf("after flat window: alerts = %+v, want firing then cleared", got)
	}
	if s.Active(SentinelGoroutines) {
		t.Fatal("sentinel should be inactive after clearing")
	}
}

func TestSentinelSteadyStateNeverFires(t *testing.T) {
	log := NewAlertLog(0)
	s := NewSentinels(SentinelConfig{Window: 5, GoroutineGrowth: 100, HeapGrowthBytes: 1 << 20}, log, nil)

	for i := 0; i < 20; i++ {
		win := growthWindow(5, 500, 0)
		for j := range win {
			win[j].HeapAllocBytes = 64 << 20 // large but flat
		}
		s.Evaluate(win)
	}
	if n := log.Len(); n != 0 {
		t.Fatalf("steady state recorded %d alerts: %+v", n, log.Alerts())
	}
}

func TestSentinelSpikyGrowthIsNotMonotone(t *testing.T) {
	log := NewAlertLog(0)
	s := NewSentinels(SentinelConfig{Window: 5, GoroutineGrowth: 100}, log, nil)

	// Net delta 300 but with a dip mid-window: a reclaiming workload, not a
	// leak — must not fire.
	win := growthWindow(5, 10, 100)
	win[2].Goroutines = 5
	s.Evaluate(win)
	if n := log.Len(); n != 0 {
		t.Fatalf("non-monotone window fired: %+v", log.Alerts())
	}
}

func TestSentinelShortWindowSkipped(t *testing.T) {
	log := NewAlertLog(0)
	s := NewSentinels(SentinelConfig{Window: 5, GoroutineGrowth: 10}, log, nil)
	s.Evaluate(growthWindow(3, 0, 1000))
	if n := log.Len(); n != 0 {
		t.Fatalf("short window evaluated: %+v", log.Alerts())
	}
}

func TestSentinelHeapGrowthFires(t *testing.T) {
	log := NewAlertLog(0)
	s := NewSentinels(SentinelConfig{Window: 3, HeapGrowthBytes: 1 << 20}, log, nil)

	win := make([]RuntimeSample, 3)
	for i := range win {
		win[i] = RuntimeSample{TSMicros: int64(i + 1), HeapAllocBytes: int64(i) * (1 << 20)}
	}
	s.Evaluate(win)
	got := alertsFor(log, SentinelHeap)
	if len(got) != 1 || got[0].State != AlertFiring {
		t.Fatalf("heap growth alerts = %+v, want one firing", got)
	}
}

func TestSentinelPoolChurn(t *testing.T) {
	log := NewAlertLog(0)
	s := NewSentinels(SentinelConfig{Window: 2, PoolChurnRatio: 0.5, PoolChurnMinGets: 100}, log, nil)

	// Healthy pool: plenty of gets, few news.
	s.Evaluate([]RuntimeSample{
		{TSMicros: 1, PoolGets: 0, PoolNews: 0},
		{TSMicros: 2, PoolGets: 1000, PoolNews: 10},
	})
	if n := log.Len(); n != 0 {
		t.Fatalf("healthy pool fired: %+v", log.Alerts())
	}

	// Churning pool: 80% of gets allocated fresh.
	s.Evaluate([]RuntimeSample{
		{TSMicros: 3, PoolGets: 1000, PoolNews: 10},
		{TSMicros: 4, PoolGets: 2000, PoolNews: 810},
	})
	got := alertsFor(log, SentinelPoolChurn)
	if len(got) != 1 || got[0].State != AlertFiring {
		t.Fatalf("churning pool alerts = %+v, want one firing", got)
	}
	if got[0].Value != 80 {
		t.Fatalf("churn value = %d%%, want 80%%", got[0].Value)
	}

	// Below min gets: too little traffic to judge, and 0% churn clears.
	s.Evaluate([]RuntimeSample{
		{TSMicros: 5, PoolGets: 2000, PoolNews: 810},
		{TSMicros: 6, PoolGets: 2010, PoolNews: 810},
	})
	got = alertsFor(log, SentinelPoolChurn)
	if len(got) != 2 || got[1].State != AlertCleared {
		t.Fatalf("alerts = %+v, want firing then cleared", got)
	}
}

func TestSentinelNilSafety(t *testing.T) {
	var s *Sentinels
	s.Evaluate(growthWindow(5, 0, 1000)) // must not panic
	if s.Active(SentinelGoroutines) {
		t.Fatal("nil sentinels reported active")
	}
	var l *AlertLog
	l.Record(Alert{})
	if l.Len() != 0 || l.Alerts() != nil || l.Total() != 0 {
		t.Fatal("nil alert log retained something")
	}
}

func TestAlertLogRingOverwritesOldest(t *testing.T) {
	log := NewAlertLog(4)
	for i := 0; i < 10; i++ {
		log.Record(Alert{TSMicros: int64(i)})
	}
	got := log.Alerts()
	if len(got) != 4 {
		t.Fatalf("ring retained %d, want 4", len(got))
	}
	for i, a := range got {
		if want := int64(6 + i); a.TSMicros != want {
			t.Fatalf("ring[%d].TSMicros = %d, want %d", i, a.TSMicros, want)
		}
	}
	if log.Total() != 10 {
		t.Fatalf("total = %d, want 10", log.Total())
	}
}

// TestSentinelThroughCollector drives the real sampling path: a collector
// wired with sentinels observes an induced goroutine leak via SampleNow.
func TestSentinelThroughCollector(t *testing.T) {
	log := NewAlertLog(0)
	sent := NewSentinels(SentinelConfig{Window: 3, GoroutineGrowth: 8}, log, nil)
	// An hour-long ticker keeps the background goroutine out of the test;
	// SampleNow drives sampling deterministically.
	c := StartRuntimeCollector(time.Hour, nil, sent)
	defer c.Stop()

	stop := make(chan struct{})
	defer close(stop)
	for i := 0; i < 3; i++ {
		for j := 0; j < 10; j++ {
			go func() { <-stop }()
		}
		c.SampleNow()
	}
	if !sent.Active(SentinelGoroutines) {
		t.Fatalf("goroutine sentinel did not fire; samples = %+v", c.Samples())
	}
	got := alertsFor(log, SentinelGoroutines)
	if len(got) == 0 || got[0].State != AlertFiring {
		t.Fatalf("alerts = %+v, want a firing goroutine_growth", got)
	}
}
