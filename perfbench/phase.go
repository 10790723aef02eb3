package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"e2eqos/internal/bb"
)

// counters is a point-in-time reading of every layer counter the
// benchmark can reach from outside the program.
type counters struct {
	mem               runtime.MemStats
	cpu               time.Duration
	steal, total      int64
	sendFrames        int64
	sendBytes         int64
	netFrames         int64
	netBytes          int64
	journalAppends    int64
	journalFsyncs     int64
	retries           float64
	commitTimeouts    float64
	tunnelBatchSecSum float64
}

// brokers lists every broker of the world, replicas included.
func (e *env) brokers() []*bb.BB {
	var out []*bb.BB
	for _, d := range e.w.Domains {
		if e.wl.replicas <= 1 {
			out = append(out, e.w.BBs[d])
			continue
		}
		for i := 0; i < e.wl.replicas; i++ {
			out = append(out, e.w.ReplicaBB(d, i))
		}
	}
	return out
}

func (e *env) read() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.steal, c.total = hostSteal()
	c.sendFrames, c.sendBytes = e.sends.frames.Load(), e.sends.bytes.Load()
	c.netFrames, c.netBytes = e.w.Net.Messages(), e.w.Net.Bytes()
	for _, b := range e.brokers() {
		st := b.Journal().Stats()
		c.journalAppends += st.Appends
		c.journalFsyncs += st.Fsyncs
	}
	for _, snap := range e.w.MetricsSnapshot() {
		c.retries += snap["bb_retries_total"]
		c.commitTimeouts += snap["bb_repl_commit_timeouts_total"]
		c.tunnelBatchSecSum += snap["bb_tunnel_batch_seconds_sum"]
	}
	return c
}

// phase is one closed-loop pass over all of a run's ops.
type phase struct {
	outcomes []opOutcome
	wall     time.Duration
	before   counters
	after    counters
}

// runPhase drives every op through wl.clients closed-loop goroutines
// sharing the one user; op indices are handed out in order.
func runPhase(e *env, ops int) *phase {
	p := &phase{outcomes: make([]opOutcome, ops)}
	p.before = e.read()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < e.wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					return
				}
				c0 := time.Now()
				out := e.op(i)
				out.cycle = time.Since(c0)
				p.outcomes[i] = out
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.after = e.read()
	return p
}

func (p *phase) failed() int {
	n := 0
	for _, o := range p.outcomes {
		if !o.ok {
			n++
		}
	}
	return n
}

// latencies returns every op's latency in ascending order. A failed op
// counts as missing every latency limit: it takes the whole phase's
// wall time and sorts last.
func (p *phase) latencies() []time.Duration {
	lat := make([]time.Duration, len(p.outcomes))
	for i, o := range p.outcomes {
		lat[i] = o.lat
		if !o.ok {
			lat[i] = p.wall
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// percentile is the nearest-rank q-quantile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	k := int(q*float64(len(sorted))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// opsPerSec is the closed-loop rate of granted ops at the median op
// cycle: clients divided by the median time from one op's start to the
// next (the timed part plus its untimed cancel or release), scaled by
// the share of ops granted. A whole-phase count over wall time also
// charges every stall the host imposes; that figure goes into the
// record as wall_ops_per_s.
func (p *phase) opsPerSec(clients int) float64 {
	cyc := make([]float64, len(p.outcomes))
	for i, o := range p.outcomes {
		cyc[i] = o.cycle.Seconds()
	}
	granted := float64(len(p.outcomes)-p.failed()) / float64(len(p.outcomes))
	return granted * float64(clients) / median(cyc)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMB collects garbage and reads the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// hostSteal reads the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros where it cannot be read).
func hostSteal() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
