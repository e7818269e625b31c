// Package runtime is the host worker pool: a parallel-for that the graph
// executor uses to split a layer's FKR-ordered filters across threads in
// ranges of equal kept weight (the mapping the paper uses for GPU thread
// blocks and CPU threads), plus the wall-clock measurement helper the
// command-line tools share.
//
// A pool of width w keeps w−1 worker goroutines, started on its first fork.
// A fork publishes one job into a fixed slot, cut into a few chunks per
// worker; up to w−1 workers and the calling goroutine claim the chunks from
// one atomic counter, so the caller runs every chunk nobody else has picked
// up, never waits on an unclaimed one, and a worker that arrives late or
// runs slow holds up at most one small chunk. Between forks a worker polls
// the slots for a short, fixed number of rounds — the executor forks twice
// per node, microseconds apart — and then parks until a fork wakes it. A
// fork spawns nothing and allocates nothing.
package runtime

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a worker pool for data-parallel layer execution. Its workers stop
// when Close is called or when the pool has become unreachable.
type Pool struct {
	width int
	team  *team // nil at width 1
}

// NewPool creates a pool with n workers (n<=0 selects GOMAXPROCS).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{width: n}
	if n > 1 {
		p.team = newTeam(n - 1)
		runtime.AddCleanup(p, (*team).close, p.team)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.width }

// Chunks is how many chunks ParallelFor cuts a domain of at least that many
// indices into: chunksPerWorker per worker, or 1 on a width-1 pool. Callers
// that balance their own cuts (the graph executor's filter ranges) cut into
// this many.
func (p *Pool) Chunks() int {
	if p.width == 1 {
		return 1
	}
	return p.width * chunksPerWorker
}

// Close stops the pool's workers and returns once they have exited. Later
// forks run on their callers alone. Close is idempotent; a pool that is never
// closed stops its workers when it becomes unreachable.
func (p *Pool) Close() {
	if p.team != nil {
		p.team.close()
	}
}

// ParallelFor runs fn(chunk) for chunks [start,end) covering [0,n), cut as
// evenly as possible into min(n, Chunks()) pieces, on at most Workers()
// goroutines at once. A panic inside fn is captured on the goroutine that ran
// the chunk and re-raised on the calling goroutine after every chunk has
// finished, so callers (and deferred recovers above them) observe it the same
// way they would a panic from a plain loop; if several chunks panic, the
// first one captured wins.
func (p *Pool) ParallelFor(n int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if p.width == 1 || n == 1 || !p.team.start() {
		fn(0, n)
		return
	}
	p.team.fork(min(n, p.Chunks(), maxChunks), n, fn)
}

const (
	// maxForks is how many forks the workers serve at once — concurrent
	// lanes, nested forks; a fork finding every slot taken runs on its
	// caller alone.
	maxForks = 8
	// maxChunks bounds a fork's chunk count to what the claim word holds.
	maxChunks = 1<<15 - 1
	// chunksPerWorker is how finely a fork is cut: enough that a worker woken
	// late, or on a core the host is time-slicing, delays the fork by a
	// quarter of its share at most, few enough that a conv's filter ranges
	// stay long.
	chunksPerWorker = 4
	// spinRounds is how many times an idle worker polls the fork slots,
	// yielding its thread between polls, before it parks. A round is a
	// scheduler yield — well under a microsecond with nothing else runnable —
	// so the budget spans the gap between one node's forks and the next and
	// ends long before a parked neighbour's network wakeup would notice.
	spinRounds = 512
)

// team is a pool's worker set. It holds no reference to the Pool, so the
// pool's cleanup can run while workers are parked.
type team struct {
	size  int
	forks [maxForks]fork
	spin  bool // poll before parking: off when the workers outnumber the CPUs

	mu      sync.Mutex // serializes start against close
	started atomic.Bool
	closed  atomic.Bool
	stop    chan struct{}
	exited  sync.WaitGroup
	done    chan struct{} // closed once every worker has exited

	// sleeping counts parked workers; wake carries one token per wakeup and
	// is sized so a token is never lost to a full buffer while a worker
	// sleeps.
	sleeping atomic.Int32
	wake     chan struct{}
}

// fork is one job slot. Its owner writes fn, n and size, then publishes the
// claim word; a helper reads them only after it has claimed a chunk, and the
// owner rewrites them only after every chunk has finished.
type fork struct {
	busy atomic.Bool // owned by a caller
	// claim packs epoch<<32 | chunks<<16 | next. A helper claims chunk next
	// by CAS, so a stale read from a finished epoch can never claim a chunk
	// of the next one.
	claim atomic.Uint64
	done  atomic.Int32
	fn    func(start, end int)
	n     int
	size  int
	// panicked elects the first panicking chunk, which stores its value.
	panicked atomic.Bool
	panicVal any
}

func newTeam(size int) *team {
	return &team{
		size: size,
		spin: size < runtime.GOMAXPROCS(0),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		wake: make(chan struct{}, size),
	}
}

// start launches the workers on the first fork and reports whether they are
// available; false once the team is closed (or for a width-1 pool).
func (t *team) start() bool {
	if t == nil || t.closed.Load() {
		return false
	}
	if t.started.Load() {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return false
	}
	if !t.started.Load() {
		t.exited.Add(t.size)
		for range t.size {
			go t.work()
		}
		t.started.Store(true)
	}
	return true
}

func (t *team) close() {
	t.mu.Lock()
	first := !t.closed.Swap(true)
	if first {
		close(t.stop)
	}
	t.mu.Unlock()
	t.exited.Wait()
	if first {
		close(t.done)
	}
}

// fork runs fn over [0, n) in w chunks with the help of the team's workers.
func (t *team) fork(w, n int, fn func(start, end int)) {
	f := t.acquire()
	if f == nil {
		fn(0, n)
		return
	}
	size := (n + w - 1) / w
	chunks := int32((n + size - 1) / size)
	f.fn, f.n, f.size = fn, n, size
	f.done.Store(0)
	f.panicked.Store(false)
	f.claim.Store((f.claim.Load()>>32+1)<<32 | uint64(chunks)<<16)
	t.wakeUp(int(chunks) - 1)

	for {
		k := int32(f.claim.Add(1)-1) & 0xffff
		if k >= chunks {
			break
		}
		f.run(int(k))
		f.done.Add(1)
	}
	// What is left is running on a worker. Yield rather than block: a
	// blocked caller's core may halt, and waking it costs more than the
	// chunk it waits for.
	for f.done.Load() != chunks {
		runtime.Gosched()
	}
	panicked, pv := f.panicked.Load(), f.panicVal
	f.fn, f.panicVal = nil, nil
	f.busy.Store(false)
	if panicked {
		panic(pv)
	}
}

func (t *team) acquire() *fork {
	for i := range t.forks {
		if f := &t.forks[i]; !f.busy.Load() && f.busy.CompareAndSwap(false, true) {
			return f
		}
	}
	return nil
}

// wakeUp sends up to k parked workers a token.
func (t *team) wakeUp(k int) {
	for k = min(k, int(t.sleeping.Load())); k > 0; k-- {
		select {
		case t.wake <- struct{}{}:
		default:
			return
		}
	}
}

// run executes chunk k, capturing a panic for the owner.
func (f *fork) run(k int) {
	defer func() {
		if r := recover(); r != nil && f.panicked.CompareAndSwap(false, true) {
			f.panicVal = r
		}
	}()
	start := k * f.size
	f.fn(start, min(start+f.size, f.n))
}

// help claims and runs chunks from every published fork until none is left,
// and reports whether it ran any.
func (t *team) help() bool {
	ran := false
	for i := range t.forks {
		f := &t.forks[i]
		for {
			c := f.claim.Load()
			k, chunks := int32(c&0xffff), int32(c>>16&0xffff)
			if k >= chunks {
				break
			}
			if !f.claim.CompareAndSwap(c, c+1) {
				continue
			}
			f.run(int(k))
			f.done.Add(1)
			ran = true
		}
	}
	return ran
}

// work is a worker's loop: help, poll for spinRounds, park, repeat.
func (t *team) work() {
	defer t.exited.Done()
	for idle := 0; ; {
		if t.closed.Load() {
			return
		}
		if t.help() {
			idle = 0
			continue
		}
		if t.spin && idle < spinRounds {
			idle++
			runtime.Gosched()
			continue
		}
		// Park. A fork published after the count went up sees a sleeper and
		// sends a token; one published before it is found by the re-check.
		t.sleeping.Add(1)
		if !t.help() {
			select {
			case <-t.wake:
			case <-t.stop:
			}
		}
		t.sleeping.Add(-1)
		idle = 0
	}
}

// Measure runs fn repeatedly and returns the average wall-clock milliseconds
// over runs (after one warmup).
func Measure(runs int, fn func()) float64 {
	if runs < 1 {
		runs = 1
	}
	fn() // warmup
	start := time.Now()
	for i := 0; i < runs; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6 / float64(runs)
}
