// Command perfbench is the repository benchmark. It builds in-process
// broker worlds, drives one of four seeded fixed-count workloads
// through the public user API, checks the outcome and prints its
// metrics as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload reserve5 --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run. See RATIONALE.md for what each workload and
// metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's metrics, printed with --trace 1. Each
// is a mean per op unless its name says otherwise.
var perLayer = []metricDef{
	{"core.verify_ms", "ms"},
	{"policysrv.decide_ms", "ms"},
	{"resv.admit_ms", "ms"},
	{"resv.available_us", "us"},
	{"resv.table_len", "count"},
	{"bb.self_ms", "ms"},
	{"bb.other_ms", "ms"},
	{"bb.retries", "count"},
	{"signalling.client_ms", "ms"},
	{"transport.frames", "count"},
	{"transport.kb", "kB"},
	{"transport.net_frames", "count"},
	{"transport.net_kb", "kB"},
	{"runtime.allocs", "count"},
	{"runtime.alloc_kb", "kB"},
	{"tunnel.live_subflows", "count"},
	{"journal.appends", "count"},
	{"journal.fsyncs", "count"},
	{"bb.repl_commit_timeouts", "count"},
	{"fail_frac", "ratio"},
	{"obs.trace_overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	wl      *workload
	seed    uint64
	ops     int
	trace   bool
	setups  int
	workdir string
}

// result is a run's summary plus the detail that goes into its record.
type result struct {
	summary
	violations []string
	detail     map[string]any
}

func (r *result) set(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
}

func main() {
	name := flag.String("workload", "", "workload: reserve5, booked5, subflow64 or replicated3")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "run size: the op count is the workload's rate times this (not a time box)")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench/tmp", "scratch directory for journals")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds, trace int, workdir string) error {
	wl, err := workloadByName(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	ops := int(math.Round(wl.rate * float64(seconds)))
	if ops < 1 {
		return fmt.Errorf("need at least one op")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	res, err := run(config{wl: wl, seed: seed, ops: ops, trace: trace == 1, setups: wl.setups, workdir: workdir})
	if err != nil {
		return err
	}
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", v)
	}
	res.detail["host"] = fingerprint(".")
	res.detail["workload"], res.detail["seed"], res.detail["ops"] = wl.name, seed, ops
	res.detail["violations"] = len(res.violations)
	rec, err := json.Marshal(map[string]any{"record": res.detail})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res.summary)
	if err != nil {
		return err
	}
	fmt.Println(string(rec))
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d correctness violations", len(res.violations))
	}
	return nil
}

// run executes one configured run: with trace off, set up cfg.setups
// times and time the last world; with trace on, an untraced and a
// traced pass over fresh worlds.
func run(cfg config) (*result, error) {
	in := generate(cfg.wl, cfg.seed, cfg.ops)
	base := time.Now().Truncate(time.Minute).Add(time.Hour)
	res := &result{detail: map[string]any{"inputs_digest": in.digest()}}
	if cfg.trace {
		return res, runTraced(cfg, in, base, res)
	}
	var setupS []float64
	var e *env
	for s := 0; s < cfg.setups; s++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(cfg.wl, in, base, cfg.workdir, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()
	p := runPhase(e, cfg.ops)
	res.account(e, p)
	heap := liveHeapMB()
	res.violations = append(res.violations, e.checkState(cfg.ops)...)
	res.Correct = len(res.violations) == 0
	lat := p.latencies()
	scale := 1.0
	if cfg.wl.subflow {
		scale = batchSize
	}
	res.set(endToEnd, map[string]float64{
		"setup_s":       median(setupS),
		"op_p50_ms":     ms(percentile(lat, 0.5)),
		"ops_per_s":     scale * p.opsPerSec(cfg.wl.clients),
		"cpu_ms_per_op": ms(p.after.cpu-p.before.cpu) / float64(len(lat)),
		"live_heap_mb":  heap,
	})
	res.detail["setup_s_runs"] = setupS
	res.detail["latency_samples"] = len(lat)
	res.detail["op_p75_ms"] = ms(percentile(lat, 0.75))
	res.detail["op_p90_ms"] = ms(percentile(lat, 0.9))
	res.detail["wall_ops_per_s"] = scale * float64(len(lat)-p.failed()) / p.wall.Seconds()
	if d := p.after.total - p.before.total; d > 0 {
		res.detail["host_steal_pct"] = 100 * float64(p.after.steal-p.before.steal) / float64(d)
	}
	return res, nil
}

// account adds a phase's op counts and grant checks to the result and
// drops the grants it held for them. A failed op is counted, not
// fatal; the first few are shown.
func (r *result) account(e *env, p *phase) {
	r.Attempted += len(p.outcomes)
	r.Failed += p.failed()
	r.violations = append(r.violations, e.verifyGrants(p)...)
	shown := 0
	for i := range p.outcomes {
		o := &p.outcomes[i]
		if !o.ok && shown < 3 {
			shown++
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %s\n", i, o.err)
		}
		o.res = nil
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
