// Command perfbench is the repository's benchmark: it runs one named
// workload against an in-process kvstore (through server.Server on a
// loopback listener, or by calling the Store directly), checks every
// reply, and prints the end-to-end metrics, or with --trace 1 the
// per-layer metrics. The last line of standard output is the result
// as one JSON object. See README.md for the workloads and metrics.
//
//	go build -o perfbench . && ./perfbench --workload pipelined-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/spin"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "seconds of measurement in the run, split over its parts")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	part := flag.Int("part", -1, "measure only this part of the run, in this process")
	lastTry := flag.Bool("last-try", false, "with --part: keep spin's calibration whatever state it caught")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *part >= parts {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	if *part < 0 {
		os.Exit(runParts(*name, *seed, *seconds, *trace))
	}
	if !calibrate() && !*lastTry {
		os.Exit(exitRecalibrate)
	}
	o := options{seed: *seed, part: *part, seconds: *seconds}
	e, _ := json.Marshal(env(o.seed, o.part))
	fmt.Printf("# env %s\n", e)
	var res result
	if *trace == 1 {
		res, err = runTraced(w, o, traceDir(), os.Stdout)
	} else {
		res, err = runUntraced(w, o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// parts is how many fresh processes share one run, each calibrating,
// setting up and measuring on its own; the run reports the median of
// the parts.
//
// spin calibrates its busy-wait rate once per process, from a 2 ms
// sample, and that rate scales every simulated coherence delay. On a
// shared machine the processor runs at one of two speeds about a factor
// of two apart, switching every few tens of milliseconds, so the sample
// lands on either and the simulated machine would differ from process
// to process. A part therefore probes the speed first and calibrates
// while the processor runs at its slower, more common speed; a part
// that cannot confirm this exits with exitRecalibrate, and the run
// starts it afresh, at most maxTries times.
const (
	parts           = 10
	maxTries        = 6
	runTimeout      = 150 * time.Second
	exitRecalibrate = 3
	probeSamples    = 50
	slowBand        = 1.2
)

// pauseRate returns spin.Pause iterations per microsecond over 2 ms.
func pauseRate() float64 {
	const batch = 4096
	var iters int64
	start := time.Now()
	for time.Since(start) < 2*time.Millisecond {
		spin.Pause(batch)
		iters += batch
	}
	return float64(iters) / float64(time.Since(start).Microseconds())
}

// calibrate triggers spin's calibration between two probes at the
// slower speed, and reports whether both probes saw that speed.
func calibrate() bool {
	slow := math.Inf(1)
	for i := 0; i < probeSamples; i++ {
		slow = math.Min(slow, pauseRate())
	}
	before := pauseRate()
	for i := 0; i < 5*probeSamples && before > slowBand*slow; i++ {
		before = pauseRate()
	}
	spin.Calibrate()
	after := pauseRate()
	return before <= slowBand*slow && after <= slowBand*slow
}

// runParts measures the run as parts child processes, one after the
// other, echoes their output, and prints their metrics combined.
func runParts(name string, seed uint64, seconds float64, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e, _ := json.Marshal(env(seed, -1))
	fmt.Printf("# workload %s seed %d seconds %g trace %d parts %d env %s\n", name, seed, seconds, trace, parts, e)
	agg := result{Correct: true, Metrics: map[string]metricValue{}}
	values := map[string][]float64{}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	// Every part must end before the run's deadline; one that hangs is
	// killed and fails the run.
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	for i := 0; i < parts; i++ {
		var out []byte
		var err error
		for try := 1; ; try++ {
			args := []string{"--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds/parts, 'g', -1, 64), "--trace", strconv.Itoa(trace),
				"--part", strconv.Itoa(i), "--last-try=" + strconv.FormatBool(try == maxTries)}
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stderr = os.Stderr
			out, err = cmd.Output()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != exitRecalibrate {
				break
			}
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Printf("# part %d: %s\n", i, strings.TrimPrefix(l, "# "))
		}
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: part %d failed: %v\n", i, errors.Join(err, jerr))
			agg.Correct = false
		}
		agg.Attempted += res.Attempted
		agg.Failed += res.Failed
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
		}
	}
	// End-to-end figures are medians over parts. Per-layer figures are
	// means: several are small counts per part (GC cycles in half a
	// second), which a median would round to one part's value.
	m := map[string]float64{}
	for k, v := range values {
		if trace == 1 {
			m[k] = mean(v)
		} else {
			m[k] = median(v)
		}
	}
	for _, d := range defs {
		if len(values[d.name]) != parts {
			agg.Correct = false
		}
	}
	if agg.Correct {
		report(os.Stdout, &agg, defs, m)
		if trace == 0 {
			report(os.Stdout, nil, unbounded, m)
		}
	}
	out, _ := json.Marshal(agg)
	fmt.Println(string(out))
	if !agg.Correct {
		return 1
	}
	return 0
}

func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// traceDir is where a traced run writes its spans: the build directory
// the benchmark's wrapper uses.
func traceDir() string {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "traces")
}

// runUntraced sets the workload up, measures it, and reports the
// end-to-end metrics.
func runUntraced(w *workload, o options, out io.Writer) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	t := time.Now()
	in, err := newInstance(w, o, nil)
	setup := time.Since(t).Seconds()
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	ph, err := in.measure(o.seconds)
	if ph != nil {
		res.Attempted, res.Failed = ph.rec.attempted, ph.rec.failed
	}
	if err != nil {
		return res, err
	}
	// The live heap after a forced GC, with only the store left alive,
	// against the user bytes of the values it holds.
	store, p := in.store, in.topo.Proc(0)
	live := uint64(store.Len(p)) * uint64(w.valueSize)
	in = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(store)

	gets, sets := ph.rec.samples()
	fmt.Fprintf(out, "# samples: %d gets, %d sets over %d windows of %.3fs\n", gets, sets, windows, o.seconds/windows)
	m := endToEndMetrics(ph, setup, ms.HeapAlloc, live)
	m["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	m["allocs_per_op"] = allocsPerOp(ph)
	report(out, &res, endToEnd, m)
	report(out, &res, unbounded, m)
	res.Correct = res.Failed == 0
	return res, nil
}

// runTraced measures an untraced instance, then a traced one, each for
// half the run, and reports the per-layer metrics and the tracing
// overhead between them.
func runTraced(w *workload, o options, dir string, out io.Writer) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	in, err := newInstance(w, o, nil)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	up, err := in.measure(o.seconds / 2)
	if err != nil {
		return res, err
	}
	lockParent := spStoreCall
	if w.wire {
		lockParent = spServer
	}
	tr := newTracer(numProcs, lockParent)
	if in, err = newInstance(w, o, tr); err != nil {
		return res, fmt.Errorf("traced set-up: %w", err)
	}
	tp, err := in.measure(o.seconds / 2)
	if tp != nil {
		res.Attempted, res.Failed = up.rec.attempted+tp.rec.attempted, up.rec.failed+tp.rec.failed
	}
	if err != nil {
		return res, err
	}
	m := layerMetrics(w, up, tp, tr)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-part%d.csv", w.name, o.seed, o.part))
	if err := writeSpans(path, tr.bursts()); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "# spans of %g sampled bursts written to %s; untraced %.0f ops/s, traced %.0f ops/s\n",
		m["trace.sampled_bursts"], path, up.rec.opsPerSec(), tp.rec.opsPerSec())
	report(out, &res, perLayer, m)
	res.Correct = res.Failed == 0
	return res, nil
}

// report prints each metric as "name value unit" and, unless res is
// nil, adds it to res.
func report(out io.Writer, res *result, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			panic("metric not computed: " + d.name)
		}
		fmt.Fprintf(out, "%-28s %14.6g %s\n", d.name, v, d.unit)
		if res != nil {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
}
