package main

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// poll is follow-up work an op leaves behind (a freshness probe that
// has not seen its write yet). It reports true once finished.
type poll func() bool

// openLoop drives a schedule open loop: senders goroutines take ops in
// due order, each waits until its op is due and then sends it, however
// late the previous requests ran. Latency is charged from the due time,
// so a stall shows up in every request queued behind it, and how late
// each send started is recorded.
//
// Ops due before measure are the measured window; the rest of the
// schedule is a tail that keeps traffic flowing only while polls left
// by measured ops are outstanding.
type openLoop struct {
	senders int
	ops     []op
	measure float64
	// A poll first runs pollGap after the op, and the gap doubles on
	// every retry up to maxGap: an unfinished probe costs few requests.
	pollGap, maxGap time.Duration

	// do executes op i. It prepares the request, calls wait (which
	// returns once the op is due), sends, and returns a poll if the op
	// needs follow-up.
	do func(i int, o op, wait func() time.Time) poll

	start time.Time
	late  []time.Duration // per op: send start - due

	mu          sync.Mutex
	next        int
	polls       pollHeap
	outstanding int // measured ops with a pending poll
}

type pending struct {
	at       time.Time
	gap      time.Duration
	fn       poll
	measured bool
}

type pollHeap []pending

func (h pollHeap) Len() int           { return len(h) }
func (h pollHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h pollHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pollHeap) Push(x any)        { *h = append(*h, x.(pending)) }
func (h *pollHeap) Pop() any {
	old := *h
	p := old[len(old)-1]
	*h = old[:len(old)-1]
	return p
}

// run drives the schedule from start and returns once every sender has
// finished: the measured window is sent and no measured poll remains.
func (l *openLoop) run(start time.Time) {
	l.start = start
	l.late = make([]time.Duration, len(l.ops))
	var wg sync.WaitGroup
	for s := 0; s < l.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.sender()
		}()
	}
	wg.Wait()
}

func (l *openLoop) dueAt(i int) time.Time {
	return l.start.Add(time.Duration(l.ops[i].due * float64(time.Second)))
}

// take picks the next piece of work: the earlier of the next scheduled
// op and the earliest poll. It returns ok=false when nothing is left.
func (l *openLoop) take() (i int, p pending, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sched := l.next < len(l.ops) && (l.ops[l.next].due < l.measure || l.outstanding > 0)
	switch {
	case len(l.polls) > 0 && (!sched || !l.polls[0].at.After(l.dueAt(l.next))):
		return -1, heap.Pop(&l.polls).(pending), true
	case sched:
		l.next++
		return l.next - 1, pending{}, true
	case l.outstanding > 0:
		// The other sender holds a poll it has yet to queue; look
		// again shortly rather than leave it unserved.
		return -1, pending{at: time.Now().Add(l.pollGap)}, true
	default:
		return -1, pending{}, false
	}
}

func (l *openLoop) sender() {
	for {
		i, p, ok := l.take()
		if !ok {
			return
		}
		if i < 0 {
			sleepUntil(p.at)
			if p.fn != nil {
				l.finish(p.fn(), p)
			}
			continue
		}
		o := l.ops[i]
		due := l.dueAt(i)
		wait := func() time.Time {
			sleepUntil(due)
			l.late[i] = time.Since(due)
			return due
		}
		fn := l.do(i, o, wait)
		if fn == nil {
			continue
		}
		p = pending{fn: fn, measured: o.due < l.measure}
		if p.measured {
			l.mu.Lock()
			l.outstanding++
			l.mu.Unlock()
		}
		l.finish(false, p)
	}
}

// finish re-queues an unfinished poll with its gap doubled, or retires
// a measured one.
func (l *openLoop) finish(done bool, p pending) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !done {
		p.gap = min(max(2*p.gap, l.pollGap), l.maxGap)
		p.at = time.Now().Add(p.gap)
		heap.Push(&l.polls, p)
		return
	}
	if p.measured {
		l.outstanding--
	}
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// closedLoop runs workers that each send their next op as soon as the
// previous one completes, until deadline: the saturation throughput.
// exec sends op k of the phase.
func closedLoop(workers int, deadline time.Time, exec func(k uint64)) {
	var n atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				exec(n.Add(1) - 1)
			}
		}()
	}
	wg.Wait()
}
