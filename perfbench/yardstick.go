package main

import "time"

// On a shared host the simulator's speed drifts by up to 50% within
// seconds as neighbours on the same core and cache come and go, while the
// program does not change. The yardstick is a fixed piece of the
// benchmark's own code with the simulator's two dominant costs, a binary
// event heap and short-lived allocations. It runs between the parts of
// every repeat (scenarios, regimes, topologies), and each part's host
// time is scaled by how much slower than yardstickRef the yardstick ran
// around it: the figures are host seconds on a host where the yardstick
// takes yardstickRef. The yardstick does not call the simulator, so a
// change to the simulator moves the figures in full.

// yardstickRef is the yardstick's time on a quiet host: about the fastest
// it ran on the 2-vCPU container the README's figures come from.
const yardstickRef = 12 * time.Millisecond

const (
	yardHeapItems = 1 << 14 // 256 KiB of pending items, as a busy event heap
	yardHeapOps   = 50_000  // pop-min + push pairs per measurement
	yardAllocs    = 100_000 // 64-byte nodes allocated per measurement
)

type yardItem struct {
	at  int64
	seq uint64
}

type yardNode struct {
	next *yardNode
	v    [6]uint64
}

// yardstick holds the heap the measurement works on; it lives for the
// whole run so that only the host's speed changes between measurements.
type yardstick struct {
	heap []yardItem
	rng  uint64
	sink uint64
}

func newYardstick() *yardstick {
	y := &yardstick{heap: make([]yardItem, yardHeapItems), rng: 88172645463325252}
	for i := range y.heap {
		y.heap[i] = yardItem{at: int64(i) * 7, seq: uint64(i)}
	}
	return y
}

// clock times a repeat part by part. After each part it measures the
// yardstick, and the part's host time is scaled by yardstickRef over the
// mean of the measurements just before and just after it. Without a
// yardstick the scaled time is the host time.
type clock struct {
	yard        *yardstick
	last        time.Duration // the latest yardstick measurement
	yardTimes   []float64     // mean yardstick seconds around each part
	raw, scaled time.Duration // since the last reset
}

// reset starts a new repeat; the last yardstick measurement is kept as
// the next part's measurement before.
func (c *clock) reset() { c.raw, c.scaled = 0, 0 }

// part runs f as one timed part of the repeat.
func (c *clock) part(f func()) {
	if c.yard != nil && c.last == 0 {
		c.last = c.yard.measure()
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	c.raw += d
	if c.yard == nil {
		c.scaled += d
		return
	}
	before := c.last
	c.last = c.yard.measure()
	mean := (before + c.last) / 2
	c.yardTimes = append(c.yardTimes, mean.Seconds())
	c.scaled += time.Duration(float64(d) * float64(yardstickRef) / float64(mean))
}

// factor is scaled over host time since the last reset (1 before any).
func (c *clock) factor() float64 {
	if c.raw == 0 {
		return 1
	}
	return float64(c.scaled) / float64(c.raw)
}

// measure runs the fixed work once and returns how long it took.
func (y *yardstick) measure() time.Duration {
	t0 := time.Now()
	y.sink += y.heapWork(yardHeapOps)
	y.sink += y.allocWork(yardAllocs)
	return time.Since(t0)
}

// heapWork pops the earliest item and pushes one a random delay later,
// like an event loop rescheduling timers.
func (y *yardstick) heapWork(ops int) uint64 {
	h := y.heap
	n := len(h) - 1
	var acc uint64
	for range ops {
		top := h[0]
		acc += top.seq
		h[0] = h[n]
		for j := 0; ; {
			l := 2*j + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r].at < h[l].at {
				l = r
			}
			if h[j].at <= h[l].at {
				break
			}
			h[j], h[l] = h[l], h[j]
			j = l
		}
		y.rng ^= y.rng << 13
		y.rng ^= y.rng >> 7
		y.rng ^= y.rng << 17
		h[n] = yardItem{at: top.at + int64(y.rng%100_000), seq: y.rng}
		for j := n; j > 0; {
			p := (j - 1) / 2
			if h[p].at <= h[j].at {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
	}
	return acc
}

// allocWork allocates short chains of nodes and drops them, like packets
// that live for one hop; the collector runs as it would in a repeat.
func (y *yardstick) allocWork(allocs int) uint64 {
	var acc uint64
	var head *yardNode
	for i := range allocs {
		head = &yardNode{next: head}
		head.v[0] = uint64(i)
		if i%64 == 63 {
			for p := head; p != nil; p = p.next {
				acc += p.v[0]
			}
			head = nil
		}
	}
	return acc
}
