package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// ProfileCaptor writes on-demand CPU profiles when the engine flags a slow
// query. Captures run in the background after the triggering query finished:
// the point is not to profile that one execution (it is already over) but to
// catch the shape in the act on its next repetitions — the paper's premise
// that shapes repeat is exactly why a post-hoc capture works. Profiles carry
// the query_id/shape/session goroutine labels, so `go tool pprof -tags`
// attributes the samples.
//
// Captures are rate-limited (one per MinInterval) and mutually exclusive
// with any other CPU profile — Go allows one CPU profile at a time, so a
// capture that loses the race (e.g. against an admin /profile/cpu pull) is
// skipped and counted, never an error.

// ProfileCaptorConfig shapes a captor; zero fields take the defaults below.
type ProfileCaptorConfig struct {
	// Dir is where profiles are written (created if missing). Required.
	Dir string
	// Duration is how long each capture samples (default 1s).
	Duration time.Duration
	// MinInterval rate-limits captures (default 1m).
	MinInterval time.Duration
	// Logger is read per capture so logger swaps propagate; may be nil.
	Logger func() *Logger
}

// ProfileCaptor implements rate-limited capture-on-slow-query.
type ProfileCaptor struct {
	cfg ProfileCaptorConfig

	mu       sync.Mutex
	last     time.Time // guarded by mu; start of the latest capture
	busy     bool      // guarded by mu; a capture goroutine is running
	captured int64     // guarded by mu
	skipped  int64     // guarded by mu; rate-limited or lost the profiler race
	seq      int64     // guarded by mu; capture file ordinal
}

// NewProfileCaptor builds a captor and ensures its directory exists.
func NewProfileCaptor(cfg ProfileCaptorConfig) (*ProfileCaptor, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: profile captor needs a directory")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = time.Minute
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: profile dir: %w", err)
	}
	return &ProfileCaptor{cfg: cfg}, nil
}

// MaybeCapture starts a background CPU capture attributed to trigger (e.g.
// "slow_query") and the triggering query id, unless one ran within
// MinInterval or is still running. Returns whether a capture started.
func (p *ProfileCaptor) MaybeCapture(trigger string, queryID int64) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	now := time.Now()
	if p.busy || (!p.last.IsZero() && now.Sub(p.last) < p.cfg.MinInterval) {
		p.skipped++
		p.mu.Unlock()
		return false
	}
	p.busy = true
	p.last = now
	p.seq++
	n := p.seq
	p.mu.Unlock()
	go p.capture(trigger, queryID, n)
	return true
}

// capture runs one profile to completion.
func (p *ProfileCaptor) capture(trigger string, queryID, n int64) {
	defer func() {
		p.mu.Lock()
		p.busy = false
		p.mu.Unlock()
	}()
	path := filepath.Join(p.cfg.Dir, fmt.Sprintf("cpu-%03d-q%d.pprof", n, queryID))
	f, err := os.Create(path)
	if err != nil {
		p.logger().Error("profile capture failed", "trigger", trigger, "error", err.Error())
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another CPU profile is active (admin endpoint, test harness): skip.
		f.Close()
		os.Remove(path)
		p.mu.Lock()
		p.skipped++
		p.mu.Unlock()
		p.logger().Info("profile capture skipped",
			"trigger", trigger, "reason", err.Error())
		return
	}
	time.Sleep(p.cfg.Duration)
	pprof.StopCPUProfile()
	err = f.Close()
	p.mu.Lock()
	p.captured++
	p.mu.Unlock()
	if err != nil {
		p.logger().Error("profile capture failed", "trigger", trigger, "error", err.Error())
		return
	}
	p.logger().WithQuery(queryID).Info("profile captured",
		"trigger", trigger, "path", path, "duration_ms", p.cfg.Duration.Milliseconds())
}

// logger resolves the configured logger (nil-safe).
func (p *ProfileCaptor) logger() *Logger {
	if p.cfg.Logger == nil {
		return nil
	}
	return p.cfg.Logger()
}

// Stats reports capture counters (tests and /stats consumers).
func (p *ProfileCaptor) Stats() (captured, skipped int64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.captured, p.skipped
}
