// Command benchmark is the repository's benchmark: five named engine
// workloads, measured end to end with tracing off, and — in a separate
// traced run — layer by layer. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh --workload wn-default --seed 42 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload wn-default --trace 1   # per-layer run
//	bash benchmark/run.sh                                   # all five, one JSON document
//	bash benchmark/run.sh --selfcheck
//
// The last line of standard output is the result; progress goes to
// standard error. The exit code is non-zero when a hard check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to process start as Go code gets; set-up
// time is measured from here.
var processStart = time.Now()

// hostProcs pins GOMAXPROCS: one core runs the single engine worker,
// the other absorbs the garbage collector, on any machine.
const hostProcs = 2

// setupChildren is how many extra cold processes sample set-up time;
// with the run's own set-up that makes three samples per run.
const setupChildren = 2

// minReps is the least number of timed repetitions in a gated run.
const minReps = 3

// plan sizes one run of a workload. The gated run uses the workload's
// own size; the self-check shrinks everything.
type plan struct {
	txs           int           // AC2Ts per repetition
	warmupTxs     int           // AC2Ts of the untimed warm-up run
	budget        time.Duration // how long the timed repetitions measure
	setupChildren int           // extra cold processes sampling set-up time
}

// gatedPlan is the plan of the runs the driver makes.
func gatedPlan(w workload, seconds int) plan {
	return plan{txs: w.Txs, warmupTxs: warmupTxs, budget: time.Duration(seconds) * time.Second, setupChildren: setupChildren}
}

// result is what one run of one workload reports. The driver's line
// carries value and unit per metric; the detailed form adds kind,
// sample count and extremes.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command's flags.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	out       string
	selfcheck bool
	child     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five, each in its own process)")
	flag.Uint64Var(&o.seed, "seed", 42, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "how long the timed repetitions measure (at least three repetitions run regardless)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for the traced run's layer and span files")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload at 1/20 size twice and validate the output contract")
	flag.StringVar(&o.child, "child", "", "internal: \"setup\" prints this process's set-up seconds, \"detail\" prints the detailed result")
	flag.Parse()
	runtime.GOMAXPROCS(hostProcs)

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be positive, got %d", o.seconds)
	}
	switch {
	case o.selfcheck:
		return selfcheck(o.seed)
	case o.workload == "":
		return runAll(o)
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.child == "setup" {
		if err := warmup(w, o.seed, warmupTxs); err != nil {
			return err
		}
		fmt.Println(time.Since(processStart).Seconds())
		return nil
	}

	var res result
	var err error
	if o.trace == 1 {
		res, err = runLayers(w, o.seed, gatedPlan(w, o.seconds), o.out)
	} else {
		res, err = runEndToEnd(w, o.seed, gatedPlan(w, o.seconds))
	}
	if err != nil {
		return err
	}
	if o.child != "detail" {
		res = res.driverForm()
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: a hard check failed", w.Name)
	}
	return nil
}

// driverForm strips every metric down to value and unit.
func (r result) driverForm() result {
	ms := make(map[string]metricValue, len(r.Metrics))
	for name, m := range r.Metrics {
		ms[name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	r.Metrics = ms
	return r
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// logf writes progress to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// warmup runs the workload once at warm-up size, untimed. It is the
// bulk of set-up time: it grows the heap, faults in pages and fills
// whatever the program initialises lazily.
func warmup(w workload, seed uint64, txs int) error {
	r, err := runRep(w.config(seed, txs))
	if err != nil {
		return fmt.Errorf("%s warm-up: %w", w.Name, err)
	}
	if err := checkReps([]rep{r}, txs); err != nil {
		return fmt.Errorf("%s warm-up: %w", w.Name, err)
	}
	return nil
}

// runSelf runs this binary as a child process, waits for it to end and
// returns its standard output; its standard error is passed through.
func runSelf(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// setupSamples measures set-up time — process start to ready for the
// first timed repetition, in raw seconds — in this process and in cold
// child processes, so that work moved into lazy initialisation shows
// in every sample, not only the first.
func setupSamples(w workload, seed uint64, p plan) ([]float64, error) {
	if err := warmup(w, seed, p.warmupTxs); err != nil {
		return nil, err
	}
	samples := []float64{time.Since(processStart).Seconds()}
	for i := 0; i < p.setupChildren; i++ {
		out, err := runSelf("-workload", w.Name, "-seed", strconv.FormatUint(seed, 10), "-child", "setup")
		if err != nil {
			return nil, fmt.Errorf("set-up sample %d: %w", i+2, err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up sample %d: %w", i+2, err)
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// runEndToEnd is the gated run: warm-up, then timed repetitions with
// tracing and profiling off.
func runEndToEnd(w workload, seed uint64, p plan) (result, error) {
	txs := p.txs
	setups, err := setupSamples(w, seed, p)
	if err != nil {
		return result{}, err
	}
	logf("%s: seed %d, set-up %.2fs raw (median of %d), timing %d AC2Ts per repetition", w.Name, seed, median(setups), len(setups), txs)
	reps, slow, err := timedReps(w.config(seed, txs), minReps, p.budget, func(i int, r rep) {
		logf("%s: repetition %d: wall %.3fs, cpu %.3fs raw, %.0f allocs/AC2T", w.Name, i, r.WallNs/1e9, r.CPUNs/1e9, r.Mallocs/float64(txs))
	})
	if err != nil {
		return result{}, err
	}
	logf("%s: machine ran at %.2fx reference time; host times are reported divided by that", w.Name, slow)
	res := result{Correct: true, Attempted: txs * len(reps), Metrics: endToEndMetrics(reps, setups, slow)}
	if err := checkReps(reps, txs); err != nil {
		logf("%s: HARD CHECK FAILED: %v", w.Name, err)
		res.Correct = false
	}
	for _, r := range reps {
		res.Failed += txs - r.Agg.Graded
	}
	a := reps[0].Agg
	logf("%s: %d commits, %d aborts, %d stuck, %d atomicity violations; wall spread %.1f%% over %d repetitions",
		w.Name, a.Commits, a.Aborts, a.Stuck, a.Violations, spreadPct(column(reps, func(r rep) float64 { return r.WallNs })), len(reps))
	return res, nil
}

// runAll runs every workload in its own process — peak memory and
// set-up time only mean something in a fresh one — and prints one JSON
// document: workload → result, metrics in detailed form.
func runAll(o options) error {
	doc := make(map[string]result, len(workloads))
	failed := false
	for _, w := range workloads {
		out, err := runSelf("-workload", w.Name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-out", o.out, "-child", "detail")
		if err != nil {
			logf("%s: %v", w.Name, err)
			failed = true
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("%s: no result: %w", w.Name, err)
		}
		doc[w.Name] = res
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("a workload failed a hard check")
	}
	return nil
}
