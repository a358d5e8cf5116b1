package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// The host the bounds were set on (2 vCPUs of a shared Xeon VM) changes
// speed by up to 2x within two minutes: one discovery drifted from 64 ms
// to 128 ms and back while nothing else in the VM ran, and its CPU time
// drifted with it. A run of under a minute cannot average that out, so
// every end-to-end timing is reported in reference-host time: a fixed
// kernel runs between measured operations, and an operation's time is
// multiplied by refKernel over the median kernel time within calWindow of
// it. Over ten runs with ten seeds this cut the interquartile spread of
// the median latency from 12% to 6% on discover-warm and from 14% to 6% on
// augment-cold (README.md has the rest).
const (
	// refKernel is the kernel's median time on that host.
	refKernel = 30 * time.Millisecond
	// calWindow is how far from an operation kernel times still count:
	// the drift is slow, a single kernel time is noisy.
	calWindow = 10 * time.Second
	// setupPasses is how many kernel passes run before and after each
	// set-up: a run has few set-ups, so each gets several samples.
	setupPasses = 3
)

// calibrator holds the kernel's inputs and the kernel times of one run.
// The kernel allocates nothing, so the program's garbage-collector
// settings cannot change its time. Its 16 MB of reads also evict the CPU
// caches, so every measured operation starts with cold CPU caches.
type calibrator struct {
	src, buf []float64 // sorted: compute and cache traffic
	ring     []uint32  // a random cycle: dependent reads from memory
	block    [1 << 16]byte
	sink     uint32
	samples  []kernelTime
	// writes counts the starts and ends of a concurrent writer's
	// operations, so it is odd while one runs (see busy). A kernel
	// pass that overlaps one is not kept: the writer would slow the
	// kernel, and dividing by that time would cancel part of the
	// program's own cost out of the measured operations.
	writes atomic.Uint64
}

type kernelTime struct {
	at time.Time
	ms float64
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{src: make([]float64, 1<<16), buf: make([]float64, 1<<16), ring: make([]uint32, 1<<22)}
	for i := range c.src {
		c.src[i] = rng.Float64()
	}
	perm := rng.Perm(len(c.ring))
	for i := range perm {
		c.ring[perm[i]] = uint32(perm[(i+1)%len(perm)])
	}
	return c
}

// busy brackets one operation of a writer that runs beside the measured
// operations; call the returned function when it ends.
func (c *calibrator) busy() func() {
	c.writes.Add(1)
	return func() { c.writes.Add(1) }
}

// kernel runs and times one pass of the calibration kernel. The time is
// kept only if no writer operation ran during the pass.
func (c *calibrator) kernel() {
	w := c.writes.Load()
	start := time.Now()
	copy(c.buf, c.src)
	slices.Sort(c.buf)
	x := c.sink % uint32(len(c.ring))
	for i := 0; i < 1<<17; i++ {
		x = c.ring[x]
	}
	for i := 0; i < 16; i++ {
		h := sha256.Sum256(c.block[:])
		c.block[i] = h[0]
	}
	c.sink = x + uint32(c.buf[len(c.buf)/2]*1000)
	if d := time.Since(start); w%2 == 0 && c.writes.Load() == w {
		c.samples = append(c.samples, kernelTime{at: start, ms: ms(d)})
	}
}

// medianKernel returns the median kernel time, in ms.
func (c *calibrator) medianKernel() float64 {
	all := make([]float64, len(c.samples))
	for i, s := range c.samples {
		all[i] = s.ms
	}
	return median(all)
}

// interval is one measured operation; kind groups operations that send
// the same request.
type interval struct {
	start, end time.Time
	kind       int
}

// ref returns iv's duration in reference-host time. Call it once the run
// has taken its last kernel time, so later times count too.
func (c *calibrator) ref(iv interval) time.Duration {
	var near []float64
	for _, s := range c.samples {
		if s.at.After(iv.start.Add(-calWindow)) && s.at.Before(iv.end.Add(calWindow)) {
			near = append(near, s.ms)
		}
	}
	k := median(near)
	if len(near) == 0 {
		k = c.medianKernel()
	}
	return time.Duration(float64(iv.end.Sub(iv.start)) * ms(refKernel) / k)
}

// timed runs fn between setupPasses kernel passes on either side and
// returns its interval. It starts from a collected heap, so garbage from
// an earlier phase is not collected on fn's time.
func (c *calibrator) timed(fn func() error) (interval, error) {
	runtime.GC()
	for range setupPasses {
		c.kernel()
	}
	iv := interval{start: time.Now()}
	err := fn()
	iv.end = time.Now()
	for range setupPasses {
		c.kernel()
	}
	return iv, err
}

// closedLoop sends operations 0, 1, 2, ... one at a time, each when the
// previous one returned, with a kernel pass between operations, until the
// window has passed and at least one round of round operations is done.
// Operation k sends request kind k%round. op reports its own interval, so
// its checks stay outside the timing.
func (c *calibrator) closedLoop(round int, window time.Duration, op func(k int) (interval, bool)) (ivs []interval, failed int) {
	runtime.GC() // as in timed
	start := time.Now()
	c.kernel()
	for k := 0; time.Since(start) < window || k < round; k++ {
		iv, ok := op(k)
		iv.kind = k % round
		ivs = append(ivs, iv)
		if !ok {
			failed++
		}
		c.kernel()
	}
	return ivs, failed
}

// latency summarises a closed loop's operations, timed by dur: the
// median latency and the operations completed per second of service,
// both for a mix that sends every request kind equally often. The window
// can end mid-round, so each kind is summarised on its own first: its
// median, and its mean for the throughput. Taking the median over the
// kinds' medians also keeps the median of a round-robin mix from falling
// between the slowest sample of one kind and the fastest of the next,
// where it would move with two single samples.
func (c *calibrator) latency(ivs []interval, dur func(interval) time.Duration) (p50ms, perSecond float64) {
	byKind := map[int][]float64{}
	for _, iv := range ivs {
		byKind[iv.kind] = append(byKind[iv.kind], ms(dur(iv)))
	}
	var medians []float64
	meanOfMeans := 0.0
	for _, v := range byKind {
		medians = append(medians, median(v))
		meanOfMeans += mean(v) / float64(len(byKind))
	}
	return median(medians), 1000 / meanOfMeans
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// meanMs is the mean reference-host latency of ivs.
func (c *calibrator) meanMs(ivs []interval) float64 {
	_, perSecond := c.latency(ivs, c.ref)
	return 1000 / perSecond
}

// endToEnd returns the end-to-end timings of a run, the median set-up
// and the closed loop's latency and throughput, in reference-host time
// and as measured.
func endToEnd(c *calibrator, setups, ivs []interval) (ref, raw map[string]float64) {
	var setup, setupRaw []float64
	for _, iv := range setups {
		setup = append(setup, secs(c.ref(iv)))
		setupRaw = append(setupRaw, secs(iv.end.Sub(iv.start)))
	}
	p50, perSecond := c.latency(ivs, c.ref)
	p50Raw, perSecondRaw := c.latency(ivs, func(iv interval) time.Duration { return iv.end.Sub(iv.start) })
	return map[string]float64{
			"setup_s":          median(setup),
			"latency_p50_ms":   p50,
			"throughput_ops_s": perSecond,
		}, map[string]float64{
			"setup_s":          median(setupRaw),
			"latency_p50_ms":   p50Raw,
			"throughput_ops_s": perSecondRaw,
		}
}
