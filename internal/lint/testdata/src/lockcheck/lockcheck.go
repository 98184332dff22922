// Package lockcheck is a pclint test fixture for the lockorder analyzer's
// `guarded by` and lock-copy checks; "want" comment markers flag the lines
// where it must report.
package lockcheck

import "sync"

type box struct {
	mu sync.Mutex
	n  int            // guarded by mu
	m  map[string]int // guarded by mu
}

// newBox writes fields of a freshly built value: exempt (nothing else can
// see it yet).
func newBox() *box {
	b := &box{m: map[string]int{}}
	b.n = 1
	return b
}

func (b *box) good() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

func (b *box) goodEarlyExit(k string) int {
	b.mu.Lock()
	if v, ok := b.m[k]; ok {
		b.mu.Unlock()
		return v
	}
	b.mu.Unlock()

	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[k] = b.n
	return b.n
}

func (b *box) bad() int {
	return b.n // want
}

func (b *box) badAfterUnlock() int {
	b.mu.Lock()
	b.n = 2
	b.mu.Unlock()
	return b.n // want
}

// setLocked has the *Locked suffix: the caller holds b.mu.
func (b *box) setLocked(v int) { b.n = v }

// touch is exempt through the explicit marker. pclint:held
func (b *box) touch() { b.n++ }

// plainFuncBad shows that plain functions are checked too, not only
// methods.
func plainFuncBad(b *box) int {
	return b.n // want
}

func plainFuncGood(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

type badGuard struct {
	notAMutex int
	v         int // guarded by notAMutex — broken annotation // want
}

type badCopy struct {
	mu sync.Mutex
	v  int
}

func consumeByValue(c badCopy) int { // want
	return c.v
}

func (c badCopy) valueReceiver() int { // want
	return c.v
}

func derefCopy(p *badCopy) badCopy { // want (result type copies the lock)
	return *p // want
}

func pointerOK(p *badCopy) *badCopy { return p }
