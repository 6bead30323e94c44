package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/slice"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	workDir  string // parent of the run's scratch directory
	spansDir string // where a traced run writes its span file
	drserved string // daemon binary for daemon-mix
	nproc    int
	// maxOps caps each client's operations (0 = run until the window
	// closes); only the smoke test sets it.
	maxOps int
	size   sizes
}

// sizes are the input sizes the workloads run at.
type sizes struct {
	coldMain    int64 // cold-session region, in main-thread instructions
	warmMain    int64 // warm-query engine regions
	captureMain int64 // capture-reopen captures
	daemonMain  int64 // daemon-mix stored pinballs
	recordWork  int64 // daemon-mix record requests: the program's work-size input
}

// benchSizes are the sizes BENCHMARK.json's bounds were calibrated at.
var benchSizes = sizes{
	coldMain:    50_000,
	warmMain:    100_000,
	captureMain: 250_000,
	daemonMain:  50_000,
	recordWork:  96,
}

// setupReps is how many times a run sets up, so setup_s is a median.
const setupReps = 3

// checkSample is how many outputs each client keeps for a sampled output
// check.
const checkSample = 3

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+" (all with --runs)")
		seed     = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 = traced run: record spans and print the per-layer metrics")
		runs     = flag.Int("runs", 0, "repeatability mode: this many fresh-process runs per workload, seeds seed..seed+runs-1")
		bmark    = flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds --runs checks")
		workDir  = flag.String("workdir", "", "parent directory for the run's scratch files (default: the system temp dir)")
		spansDir = flag.String("spans-dir", ".", "where a traced run writes its span JSON")
		drserved = flag.String("drserved", "", "drserved binary (daemon-mix)")
	)
	flag.Parse()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	c := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workDir:  *workDir,
		spansDir: *spansDir,
		drserved: *drserved,
		nproc:    nproc,
		size:     benchSizes,
	}
	if *runs > 0 {
		os.Exit(repeatRuns(c, *runs, *seconds, *bmark))
	}
	res, f, err := runOnce(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res, f)
	if !res.Correct {
		os.Exit(1)
	}
}

// workload is one traffic mix over the pipeline.
type workload interface {
	// setup prepares what the timed window needs. It runs setupReps times
	// and each call replaces the previous call's state.
	setup(env *runEnv) error
	clients() int
	// op performs one closed-loop operation for client c.
	op(c *client) error
	// check verifies the window's outputs after the window closed and
	// returns one line per mismatch.
	check() ([]string, error)
	// probe names the representative input the traced run's layer probe
	// measures.
	probe() probeInput
	// layerCounters adds the workload's own per-layer window counters.
	layerCounters(m map[string]float64)
	// pid names the process under test in /proc ("self" or a child's pid).
	pid() string
	close() error
}

var workloadNames = []string{"cold-session", "warm-query", "capture-reopen", "daemon-mix"}

func newWorkload(c config) (workload, error) {
	switch c.workload {
	case "cold-session":
		return &coldSession{}, nil
	case "warm-query":
		return &warmQuery{}, nil
	case "capture-reopen":
		return &captureReopen{}, nil
	case "daemon-mix":
		if c.drserved == "" {
			return nil, fmt.Errorf("daemon-mix needs --drserved")
		}
		return &daemonMix{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames, ", "))
}

// runEnv is what a workload's setup sees.
type runEnv struct {
	cfg config
	dir string // the run's scratch directory
	rng *rand.Rand
}

// client is one closed-loop generator: it starts its next operation only
// after the previous one completed, as a debugging user waits for every
// answer.
type client struct {
	id    int
	rng   *rand.Rand // operation inputs
	pick  *rand.Rand // output-check sampling, apart so inputs never depend on it
	spans spanLog
	decks [4][]int // see draw

	n       int // operations started
	lat     []time.Duration
	busy    time.Duration
	errs    []error
	opStart time.Time
}

func newClient(id int, c config, t0 time.Time) *client {
	return &client{
		id:    id,
		rng:   rand.New(rand.NewPCG(c.seed, uint64(1+id))),
		pick:  rand.New(rand.NewPCG(c.seed, uint64(101+id))),
		spans: spanLog{on: c.trace, t0: t0, client: id},
	}
}

// draw deals the next card from the client's deck number d, a seeded
// shuffle of the cards 0..n-1 that is reshuffled whenever it runs out.
// Mixes drawn from a deck hold their proportions in every stretch of n
// operations, so windows of any length see the same mix.
func (c *client) draw(d, n int) int {
	if len(c.decks[d]) == 0 {
		c.decks[d] = c.rng.Perm(n)
	}
	card := c.decks[d][0]
	c.decks[d] = c.decks[d][1:]
	return card
}

// start opens an operation: its clock and its root span.
func (c *client) start(name string) {
	c.spans.begin(name)
	c.opStart = time.Now()
}

// stop closes the operation and records its latency. Work after stop is
// bookkeeping outside every metric.
func (c *client) stop() {
	d := time.Since(c.opStart)
	c.spans.end()
	c.lat = append(c.lat, d)
	c.busy += d
}

// fail discards an operation that returned an error.
func (c *client) fail(err error) {
	c.spans.endAll()
	c.errs = append(c.errs, err)
}

// do runs one layer call inside a span.
func do(c *client, name string, f func() error) error {
	c.spans.begin(name)
	err := f()
	c.spans.end()
	return err
}

// call runs one layer call that returns a value inside a span.
func call[T any](c *client, name string, f func() (T, error)) (T, error) {
	c.spans.begin(name)
	v, err := f()
	c.spans.end()
	return v, err
}

// runWindow drives every client until the window closes; an operation
// started before the deadline runs to completion.
func runWindow(w workload, clients []*client, window time.Duration, maxOps int) {
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && (maxOps == 0 || c.n < maxOps) {
				c.n++
				if err := runOp(w, c); err != nil {
					c.fail(err)
				}
			}
		}()
	}
	wg.Wait()
}

// runOp runs one operation, turning a panic in the program under test
// into a failed operation.
func runOp(w workload, c *client) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("operation %d panicked: %v", c.n, p)
		}
	}()
	return w.op(c)
}

// facts describe the machine and the run.
type facts struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Clients    int     `json:"clients"`
	WindowS    float64 `json:"window_s"`
	Ops        int     `json:"ops"`
	Samples    int     `json:"samples"` // operations that completed, the latency samples
	Failed     int     `json:"failed"`
	Trace      bool    `json:"trace"`
	SpansFile  string  `json:"spans_file,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runOnce(c config) (result, facts, error) {
	var res result
	w, err := newWorkload(c)
	if err != nil {
		return res, facts{}, err
	}
	if c.workDir != "" {
		if err := os.MkdirAll(c.workDir, 0o755); err != nil {
			return res, facts{}, err
		}
	}
	dir, err := os.MkdirTemp(c.workDir, c.workload+"-")
	if err != nil {
		return res, facts{}, err
	}
	defer os.RemoveAll(dir)
	defer func() {
		if err := w.close(); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: closing %s: %v\n", c.workload, err)
		}
	}()

	reps := setupReps
	if c.trace {
		reps = 1
	}
	var setupS []float64
	for range reps {
		t0 := time.Now()
		if err := w.setup(&runEnv{cfg: c, dir: dir, rng: rand.New(rand.NewPCG(c.seed, 0))}); err != nil {
			return res, facts{}, fmt.Errorf("%s setup: %w", c.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	win, err := runMeasured(w, c)
	if err != nil {
		return res, facts{}, err
	}
	f := facts{
		Workload: c.workload, Seed: c.seed, Nproc: c.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Clients: len(win.clients), WindowS: win.wall.Seconds(), Trace: c.trace,
	}
	for _, cl := range win.clients {
		f.Ops += cl.n
		f.Samples += len(cl.lat)
		f.Failed += len(cl.errs)
		for _, e := range cl.errs {
			fmt.Fprintf(os.Stderr, "pipebench: client %d: %v\n", cl.id, e)
		}
	}
	mismatches, err := w.check()
	if err != nil {
		return res, facts{}, fmt.Errorf("%s output check: %w", c.workload, err)
	}
	for _, m := range mismatches {
		fmt.Fprintln(os.Stderr, "pipebench: output check:", m)
	}
	f.Failed += len(mismatches)
	res = result{Attempted: f.Ops, Failed: f.Failed, Correct: f.Failed == 0}
	if f.Samples == 0 {
		return res, f, fmt.Errorf("%s: no operation completed in the window", c.workload)
	}

	var values map[string]float64
	defs := endToEnd
	if c.trace {
		defs = perLayer
		logs := make([]*spanLog, len(win.clients))
		for i, cl := range win.clients {
			logs[i] = &cl.spans
		}
		spans := mergeSpans(logs)
		if values, err = layerValues(w, win, spans, dir, c.nproc); err != nil {
			return res, f, err
		}
		if f.SpansFile, err = writeSpans(c.spansDir, spanFile{Workload: c.workload, Facts: f, Spans: spans}); err != nil {
			return res, f, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		values = endToEndValues(win, median(setupS))
	}
	res.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return res, f, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, f, nil
}

// window is what the timed window measured.
type window struct {
	clients        []*client
	wall           time.Duration
	rssMB          float64 // median resident set of the process under test (untraced runs)
	mem0, mem1     runtime.MemStats
	eng0, eng1     slice.EngineCacheStats
	graph0, graph1 cfg.CacheStats
}

// runMeasured runs the timed window with the process-wide counters read
// on both sides of it.
func runMeasured(w workload, c config) (*window, error) {
	win := &window{clients: make([]*client, w.clients())}
	var rss *rssSampler
	if !c.trace {
		rss = sampleRSS(w.pid(), rssEvery)
	}
	runtime.GC()
	runtime.ReadMemStats(&win.mem0)
	win.eng0, win.graph0 = slice.GetEngineCacheStats(), cfg.GraphCacheStats()
	t0 := time.Now()
	for i := range win.clients {
		win.clients[i] = newClient(i, c, t0)
	}
	runWindow(w, win.clients, c.window, c.maxOps)
	win.wall = time.Since(t0)
	runtime.ReadMemStats(&win.mem1)
	win.eng1, win.graph1 = slice.GetEngineCacheStats(), cfg.GraphCacheStats()
	if rss != nil {
		var err error
		if win.rssMB, err = rss.median(); err != nil {
			return nil, err
		}
	}
	return win, nil
}

// endToEndValues computes the untraced run's metrics.
func endToEndValues(win *window, setupS float64) map[string]float64 {
	var lat []time.Duration
	var busy time.Duration
	for _, cl := range win.clients {
		lat = append(lat, cl.lat...)
		busy += cl.busy
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return map[string]float64{
		"setup_s":    setupS,
		"op_p50_ms":  ms(percentile(lat, 50)),
		"op_p75_ms":  ms(percentile(lat, 75)),
		"ops_per_s":  float64(len(lat)) / (busy.Seconds() / float64(len(win.clients))),
		"rss_p50_mb": win.rssMB,
	}
}

// layerValues computes the traced run's metrics: self-time shares from the
// spans, the window counters, and the layer probe.
func layerValues(w workload, win *window, spans []span, dir string, nproc int) (map[string]float64, error) {
	st, err := analyzeSpans(spans)
	if err != nil {
		return nil, fmt.Errorf("span trees: %w", err)
	}
	values := map[string]float64{}
	for _, l := range layerNames {
		values[l+".self_pct"] = pct(st.self[l], st.rootNs)
	}
	for name := range st.self {
		if _, ok := values[name+".self_pct"]; !ok {
			return nil, fmt.Errorf("span %q is not a known layer", name)
		}
	}
	e0, e1, g0, g1 := win.eng0, win.eng1, win.graph0, win.graph1
	values["bench.spans"] = float64(st.spans)
	values["bench.tracing_overhead_pct"] = 100 * float64(st.spans) * spanCostNs() / float64(st.rootNs)
	values["slice.engine_cache_hit_ratio"] = ratio(e1.Hits-e0.Hits, e1.Hits-e0.Hits+e1.Misses-e0.Misses)
	values["cfg.graph_cache_hit_ratio"] = ratio(g1.Hits-g0.Hits, g1.Hits-g0.Hits+g1.Misses-g0.Misses)
	values["runtime.gc_cycles"] = float64(win.mem1.NumGC - win.mem0.NumGC)
	values["runtime.gc_pause_pct"] = 100 * float64(win.mem1.PauseTotalNs-win.mem0.PauseTotalNs) / float64(win.wall.Nanoseconds())
	for _, name := range workloadCounters {
		values[name] = 0
	}
	w.layerCounters(values)
	probed, err := probeLayers(dir, w.probe(), nproc)
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	for k, v := range probed {
		values[k] = v
	}
	return values, nil
}

// spanCostNs measures what recording one span costs, so the traced run
// can report its own overhead: spans recorded times cost per span, as a
// share of the operations' time.
func spanCostNs() float64 {
	const n = 1 << 16
	l := spanLog{on: true, t0: time.Now()}
	l.list = make([]span, 0, 2*n)
	t0 := time.Now()
	for range n {
		l.begin("probe")
		l.begin("probe.child")
		l.end()
		l.end()
	}
	return float64(time.Since(t0).Nanoseconds()) / (2 * n)
}

func printResult(out *os.File, res result, f facts) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s seed %d: %d ops (%d samples), %d failed, %d clients, %.1fs window, nproc %d, %s\n",
		f.Workload, f.Seed, f.Ops, f.Samples, f.Failed, f.Clients, f.WindowS, f.Nproc, f.GoVersion)
	for _, k := range names {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if f.SpansFile != "" {
		fmt.Fprintf(out, "spans: %s\n", f.SpansFile)
	}
	fj, _ := json.Marshal(f)
	fmt.Fprintf(out, "facts %s\n", fj)
	rj, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", rj)
}

// scratch returns a path inside the run's scratch directory.
func (e *runEnv) scratch(name string) string { return filepath.Join(e.dir, name) }
