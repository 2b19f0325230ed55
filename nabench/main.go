// Command nabench is the repository benchmark: two fixed-load workloads,
// one over TCP and one over shared memory, run with tracing off for the
// end-to-end metrics, and a traced run that adds the outside-in layer
// ladders and open-loop kv traffic for the per-layer metrics. See
// README.md in this directory.
//
//	nabench --workload pingpong-tcp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero when
// any output failed its correctness check, a run failed or the run did not
// end by its deadline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"
)

// metricDef declares one reported metric; BENCHMARK.json at the root of
// the repository repeats these lists (a test keeps them equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(b *bench)
}

var workloads = []workload{
	{"pingpong-tcp", "closed-loop notified-put ping-pong over TCP, 8 B then 256 KiB: the whole TCP stack per message",
		runPingPongTCP},
	{"stream-shm", "closed windows of notified puts over a shm segment pair, 32 B then 64 KiB: the busy shm ring path",
		runStreamShm},
}

// bench is the state of one invocation.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string

	attempted, failed int64
	failures          []string
	vals              map[string]float64
	lines             []string // human-readable report, printed before the JSON line
	trace             Trace
}

// rng returns a generator for one named input stream of this seed, so
// adding a stream never shifts the inputs of another.
func (b *bench) rng(stream string) *rand.Rand {
	h := uint64(b.seed)
	for _, c := range []byte(stream) {
		h = mix64(h ^ uint64(c))
	}
	return rand.New(rand.NewSource(int64(h)))
}

// fail counts n failed operations with a reason (the first few reasons
// are printed).
func (b *bench) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	b.failed += n
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// checkErrs counts every rank error of a run as a failed operation.
func (b *bench) checkErrs(what string, errs []error) {
	for r, err := range errs {
		if err != nil {
			b.fail(1, "%s: rank %d: %v", what, r, err)
		}
	}
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.vals[name] = v }

// note adds a line to the human-readable report.
func (b *bench) note(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// share returns frac of the run's measuring time.
func (b *bench) share(frac float64) time.Duration {
	return time.Duration(frac * b.seconds * float64(time.Second))
}

// tracer returns a fresh per-rank tracer when the run is traced and
// tracing is on for this pass, nil otherwise.
func (b *bench) tracer(on bool, origin time.Time) *Tracer {
	if !on {
		return nil
	}
	return NewTracer(origin)
}

func mix64(x uint64) uint64 { // splitmix64 finalizer
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: pingpong-tcp or stream-shm")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measuring time of the run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its span file to")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "nabench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	// All load comes from one process hosting both ranks, on at most two
	// cores, so the figures compare across machines with more of them.
	procs := goruntime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	goruntime.GOMAXPROCS(procs)

	b := &bench{workload: w.name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		outDir: *out, vals: map[string]float64{}}
	// A run that stalls (a lost round trip, a hung rank) is ended here as
	// a failed run rather than left to hang.
	deadline := time.Duration(2**seconds*float64(time.Second)) + time.Minute
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "nabench: the run did not end within %v\n", deadline)
		line, _ := json.Marshal(jsonResult{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]jsonMetric{}})
		fmt.Println(string(line))
		os.Exit(1)
	})
	steal := startStealMeter()
	w.run(b)
	b.set("proc.steal_pct", steal.Pct())
	b.note("host: %.1f%% of the machine's CPU time was stolen by the host during the run", b.vals["proc.steal_pct"])

	defs := endToEnd
	if b.traced {
		defs = perLayer
		if err := b.writeTrace(); err != nil {
			b.fail(1, "write trace: %v", err)
		}
	}
	if !watchdog.Stop() {
		select {} // the deadline passed: the watchdog is ending the process
	}
	res := jsonResult{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]jsonMetric{}}
	var missing []string
	for _, d := range defs {
		v, ok := b.vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	fmt.Printf("nabench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n", w.name, *seed, *seconds, *trace, procs)
	for _, l := range b.lines {
		fmt.Println(l)
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("  %-28s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, f := range b.failures {
		fmt.Println("FAILED:", f)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "nabench: metrics not produced: %v\n", missing)
		os.Exit(1)
	}
	if b.attempted < 1 {
		fmt.Fprintln(os.Stderr, "nabench: no operation attempted")
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nabench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// writeTrace writes the traced run's spans and self-time summary.
func (b *bench) writeTrace() error {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
	sum := b.trace.Summarize()
	var layers []string
	for l := range sum.Layers {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		b.note("self time %-8s %12.1f us", l, sum.Layers[l])
	}
	b.note("trace: %d spans (%d dropped) in %s", len(b.trace.Spans), b.trace.Dropped, path)
	return b.trace.WriteFile(path, b.workload, b.seed, sum)
}
