// Command bench is the De-Health repository's benchmark: one command that
// generates a seeded workload, drives the real dehealthd and
// dehealth-router binaries over loopback (or the public attack API in
// process), checks every answer, and prints the workload's metrics.
//
// Run it from the repository root through bench/run.sh, which builds the
// binaries from the tree under test first:
//
//	bash bench/run.sh --workload forum-serve --seed 1 --seconds 20 --trace 0
//
// Workloads: forum-serve, routed-approx, forum-attack (see COVERAGE.md).
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run instead, and the spans are written to a file.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric with its unit and direction.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists every end-to-end metric a workload can report. A
// workload reports those that apply to it; the rest print as n/a.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"ingest_p50_ms", "ms", "lower"},
	{"ingest_p99_ms", "ms", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"recall_at_10", "ratio", "higher"},
	{"attack_users_per_s", "1/s", "higher"},
	{"topk_success", "ratio", "higher"},
	{"refined_accuracy", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"warm_boot_s", "s", "lower"},
	{"mem_mb", "MB", "lower"},
}

// gated are the end-to-end metrics every workload reports and that held
// steady over runs, the ones the result line carries (BENCHMARK.json
// end_to_end). The others appear only in the printed report: some are
// workload-specific, failed_frac travels as the result line's
// failed/attempted, and p99_ms moved by more than any allowed bound from
// run to run on the 2-vCPU machine the benchmark was defined on, so p90_ms
// carries the tail instead.
var gated = []string{"qps", "p50_ms", "p90_ms", "setup_s", "mem_mb", "topk_success", "recall_at_10"}

// perLayer lists the traced run's metrics. A layer that does no work on a
// workload reports zero.
var perLayer = []metricDef{
	{"router.self_p50_ms", "ms", "lower"},
	{"router.hedges_per_query", "count", "lower"},
	{"router.hedge_win_frac", "ratio", "higher"},
	{"router.retries_per_query", "count", "lower"},
	{"router.partial_frac", "ratio", "lower"},
	{"serve.self_p50_ms", "ms", "lower"},
	{"serve.mean_batch", "count", "higher"},
	{"serve.ingest_self_p50_ms", "ms", "lower"},
	{"dehealth.query_us", "us", "lower"},
	{"dehealth.batch_us_per_query", "us", "lower"},
	{"dehealth.allocs_per_query", "count", "lower"},
	{"dehealth.bytes_per_query", "B", "lower"},
	{"dehealth.ingest_ms", "ms", "lower"},
	{"core.self_us", "us", "lower"},
	{"core.topk_s", "s", "lower"},
	{"core.refine_s", "s", "lower"},
	{"core.pipeline_build_s", "s", "lower"},
	{"shard.query_us", "us", "lower"},
	{"shard.merge_us", "us", "lower"},
	{"shard.allocs_per_query", "count", "lower"},
	{"shard.bytes_per_query", "B", "lower"},
	{"shard.rescored_per_query", "count", "lower"},
	{"shard.rescore_yield", "ratio", "higher"},
	{"index.cursors_per_query", "count", "lower"},
	{"index.postings_skipped_frac", "ratio", "higher"},
	{"index.blocks_skipped_frac", "ratio", "higher"},
	{"index.cursors_demoted_per_query", "count", "higher"},
	{"similarity.ns_per_pair", "ns", "lower"},
	{"similarity.batch_ns_per_pair", "ns", "lower"},
	{"similarity.bytes_per_pair", "B", "lower"},
	{"features.build_s", "s", "lower"},
	{"snapshot.load_ms", "ms", "lower"},
	{"snapshot.slice_mb", "MB", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.untraced_qps", "1/s", "higher"},
	{"trace.traced_qps", "1/s", "higher"},
	{"trace.untraced_p99_ms", "ms", "lower"},
	{"trace.traced_p99_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
}

// report is what a workload run measured.
type report struct {
	e2e       map[string]float64
	layers    map[string]float64
	notes     []string
	attempted int64
	failed    int64
	// wrong counts answers that differed from the reference during
	// timing; any makes the result incorrect.
	wrong int64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// env is one run's configuration and resources.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tr      *tracer // nil unless trace
	fleet   *fleet
	dir     string
}

// buildDir, under the directory the benchmark runs from, holds what
// bench/run.sh builds (bin/) and what a run writes (run/, traces/).
const buildDir = ".bench_build"

var workloads = map[string]func(*env) (*report, error){
	"forum-serve":   runForumServe,
	"routed-approx": runRoutedApprox,
	"forum-attack":  runForumAttack,
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == keepAwakeFlag {
		n, err := strconv.Atoi(os.Args[2])
		if err != nil {
			os.Exit(2)
		}
		keepAwake(n)
	}
	var (
		workload = flag.String("workload", "", "forum-serve, routed-approx or forum-attack")
		seed     = flag.Int64("seed", 1, "seed every input of the run is generated from")
		seconds  = flag.Int("seconds", 20, "measured time of the run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer variant")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload forum-serve|routed-approx|forum-attack, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	dir := filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		fleet: &fleet{bin: filepath.Join(buildDir, "bin"), dir: dir}, dir: dir}
	if e.trace {
		e.tr = newTracer()
	}

	// A signal still stops every server before the benchmark exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		e.fleet.stopAll()
		os.Exit(1)
	}()

	rep, err := run(e)
	e.fleet.stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v (run files kept in %s)\n", *workload, err, dir)
		os.Exit(1)
	}
	_ = os.RemoveAll(dir) // run files are scratch once the run succeeded
	tracePath := ""
	if e.trace {
		tracePath = filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		rep.layers["trace.spans"] = float64(e.tr.count())
		if err := e.tr.write(tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing trace: %v\n", err)
			os.Exit(1)
		}
	}
	if err := printResult(os.Stdout, *workload, e, rep, tracePath); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// printResult prints the human-readable report, then the result line.
func printResult(w io.Writer, workload string, e *env, rep *report, tracePath string) error {
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%d trace=%v\n", workload, e.seed, int(e.seconds.Seconds()), e.trace)
	fmt.Fprintf(w, "# %s\n", stamp())
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	line := resultLine{Correct: rep.wrong == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	if !e.trace {
		fmt.Fprintf(w, "# end-to-end (gated metrics marked *):\n")
		for _, m := range endToEnd {
			v, ok := rep.e2e[m.name]
			mark := " "
			if slices.Contains(gated, m.name) {
				mark = "*"
			}
			if !ok {
				fmt.Fprintf(w, "#  %s %-20s %14s %-6s %s\n", mark, m.name, "n/a", m.unit, m.better)
				continue
			}
			fmt.Fprintf(w, "#  %s %-20s %14.6g %-6s %s\n", mark, m.name, v, m.unit, m.better)
		}
		for _, name := range gated {
			v, ok := rep.e2e[name]
			if !ok {
				return fmt.Errorf("%s did not measure %s", workload, name)
			}
			line.Metrics[name] = metricOut{Value: v, Unit: unitOf(endToEnd, name)}
		}
	} else {
		fmt.Fprintf(w, "# per-layer (traced run; spans in %s):\n", tracePath)
		for _, m := range perLayer {
			v := rep.layers[m.name] // a layer idle on this workload reports 0
			fmt.Fprintf(w, "#   %-32s %14.6g %-6s %s\n", m.name, v, m.unit, m.better)
			line.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		}
		for name := range rep.layers {
			if unitOf(perLayer, name) == "" {
				return fmt.Errorf("%s measured undeclared layer metric %s", workload, name)
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func unitOf(defs []metricDef, name string) string {
	for _, m := range defs {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// stamp identifies the machine, toolchain and source a result came from.
func stamp() string {
	commit := "none"
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest("."))
}

// sourceDigest hashes the module's Go sources and go.mod, the inputs of
// the binaries under test, so a result names its code even where the
// checkout is not a git repository.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "bench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// fanout runs f(0..n-1) on workers goroutines and returns the first error.
func fanout(n, workers int, f func(i int) error) error {
	errs := make(chan error, workers)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			var first error
			for i := range next {
				if first == nil {
					first = f(i)
				}
			}
			errs <- first
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var all []error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			all = append(all, err)
		}
	}
	return errors.Join(all...)
}
