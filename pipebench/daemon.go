package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/sessiond"
	"repro/internal/slice"
	"repro/internal/store"
	"repro/internal/workloads"
)

// daemonMix is two connections to a child drserved with a store. Set-up
// puts three pinballs into the daemon's store and warms each with one
// slice; the window sends requests naming pinballs by digest: 60% slice
// (a variable or source-line criterion, parallel engine), 25% replay and
// 15% record. One pinball gets 60% of the slice and replay requests, the
// other two 20% each. The stored recordings and their criteria are fixed,
// as in warm-query, so every seed sends its requests against the same
// pinballs; the seed draws the request stream and the record requests'
// seeds.
type daemonMix struct {
	d     *daemon
	conns []*sessiond.Client
	pins  []daemonPin
	recs  []recordConfig
	nproc int
	main  int64            // stored pinballs' region, in main-thread instructions
	got   [][]daemonAnswer // per client
	shed  int64

	refDigest map[[2]int]string // (pin, criterion) -> sequential slice digest
}

// daemonPrograms are the stored pinballs' programs; the first is the hot
// one.
var daemonPrograms = []string{"blackscholes", "canneal", "mgrid"}

type daemonPin struct {
	name   string
	prog   *isa.Program
	lc     pinplay.LogConfig
	ref    *core.Session // the stored bytes decoded in-process, for the check
	seq    *slice.Slicer // the sequential reference slicer, built by the check
	digest string
	crits  []sliceCrit
}

// sliceCrit is a request-level slice criterion: the last read of a
// global, or the nth execution of a source line by a thread.
type sliceCrit struct {
	varName        string
	tid, line, nth int
}

type recordConfig struct {
	name  string
	prog  *isa.Program
	input []int64
	seed  int64
	out   string

	// Filled by the check: the same recording made in-process, and the ID
	// of the pinball the daemon saved.
	ref     *pinball.Pinball
	savedID string
}

const (
	reqSlice = iota
	reqReplay
	reqRecord
)

var reqOps = []string{sessiond.OpSlice, sessiond.OpReplay, sessiond.OpRecord}

// daemonDeck is twenty requests in the 60/25/15 mix; pinDeck is five
// pinball picks in the 60/20/20 mix.
var (
	daemonDeck = append(append(repeat(reqSlice, 12), repeat(reqReplay, 5)...), repeat(reqRecord, 3)...)
	pinDeck    = []int{0, 0, 0, 1, 2}
)

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// daemonAnswer is what one request returned, kept for the check.
type daemonAnswer struct {
	kind, pin, crit, rec int
	code                 string
	slice                sessiond.SliceResult
	replay               sessiond.ReplayResult
	record               sessiond.RecordResult
	attempts             int
}

func (w *daemonMix) clients() int { return 2 }

func (w *daemonMix) setup(env *runEnv) error {
	if err := w.close(); err != nil {
		return err
	}
	ks, err := compileKernels(daemonPrograms, openEnded)
	if err != nil {
		return err
	}
	storeDir, err := os.MkdirTemp(env.dir, "daemon-store-")
	if err != nil {
		return err
	}
	d, err := startDaemon(env.cfg.drserved, storeDir, storeDir+".log", env.cfg.nproc)
	if err != nil {
		return err
	}
	*w = daemonMix{d: d, nproc: env.cfg.nproc, main: env.cfg.size.daemonMain,
		got: make([][]daemonAnswer, w.clients()), refDigest: map[[2]int]string{}}
	for range w.clients() {
		cl, err := sessiond.Dial(d.addr)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, cl)
	}
	fixed := rand.New(rand.NewPCG(0, 0))
	for i, k := range ks {
		pin, err := w.storePin(fixed, k)
		if err != nil {
			return err
		}
		w.pins = append(w.pins, pin)
		// Warm the daemon's engine and CFG caches for this pinball.
		if _, err := roundTrip(w.conns[0], w.request(reqSlice, i, 0, 0), nil); err != nil {
			return fmt.Errorf("warming %s: %w", k.prog.Name, err)
		}
		wl, err := workloads.ByName(k.name)
		if err != nil {
			return err
		}
		w.recs = append(w.recs, recordConfig{
			name:  k.name,
			prog:  k.prog,
			input: wl.Input(wl.DefaultThreads, env.cfg.size.recordWork),
			seed:  schedSeed(env.rng),
			out:   env.scratch(fmt.Sprintf("record-%d.pinball", i)),
		})
	}
	return nil
}

// storePin records a region of k, puts it into the daemon's store, and
// picks its slice criteria from an in-process trace of the stored bytes.
func (w *daemonMix) storePin(rng *rand.Rand, k kernel) (daemonPin, error) {
	s := schedSeed(rng)
	lc := pinplay.LogConfig{Seed: s, Input: k.input, RandSeed: s}
	pb, err := pinplay.Log(k.prog, lc, pinplay.RegionSpec{LengthMain: w.main})
	if err != nil {
		return daemonPin{}, err
	}
	data, err := pb.EncodeBytes()
	if err != nil {
		return daemonPin{}, err
	}
	var put sessiond.StorePutResult
	if _, err := roundTrip(w.conns[0], &sessiond.Request{Op: sessiond.OpStorePut, Proto: sessiond.ProtoCurrent,
		Blob: data, StoreProgram: k.prog.Name, StoreKind: string(pb.Kind)}, &put); err != nil {
		return daemonPin{}, fmt.Errorf("%s: %w", k.prog.Name, err)
	}
	if put.Digest != store.Digest(data) {
		return daemonPin{}, fmt.Errorf("store_put %s: digest %s, bytes hash to %s", k.prog.Name, put.Digest, store.Digest(data))
	}
	ref, err := pinball.Decode(data)
	if err != nil {
		return daemonPin{}, err
	}
	pin := daemonPin{name: k.name, prog: k.prog, lc: lc, ref: core.Open(k.prog, ref), digest: put.Digest}
	tr, err := pin.ref.Trace()
	if err != nil {
		return daemonPin{}, err
	}
	// Two variable criteria (globals the region reads) and two line
	// criteria (source lines the main thread executes), drawn from rng.
	var vars []string
	for _, sym := range k.prog.Symbols {
		if _, err := slice.LastReadOf(tr, sym.Addr); err == nil && sym.Size == 1 {
			vars = append(vars, sym.Name)
		}
	}
	for _, i := range rng.Perm(len(vars))[:min(2, len(vars))] {
		pin.crits = append(pin.crits, sliceCrit{varName: vars[i]})
	}
	main := tr.Locals[0]
	for tries := 0; len(pin.crits) < 4 && tries < 1000; tries++ {
		pos := rng.IntN(len(main))
		line := main[pos].Instr.Line
		if line <= 0 {
			continue
		}
		nth := 0
		for _, ev := range main[:pos+1] {
			if ev.Instr.Line == line {
				nth++
			}
		}
		pin.crits = append(pin.crits, sliceCrit{tid: 0, line: int(line), nth: nth})
	}
	if len(pin.crits) == 0 {
		return daemonPin{}, fmt.Errorf("%s: no slice criterion in the region", k.prog.Name)
	}
	return pin, nil
}

func (w *daemonMix) request(kind, pin, crit, rec int) *sessiond.Request {
	switch kind {
	case reqSlice:
		p, sc := w.pins[pin], w.pins[pin].crits[crit]
		return &sessiond.Request{Op: sessiond.OpSlice, Workload: p.name, Digest: p.digest,
			Var: sc.varName, Tid: sc.tid, Line: sc.line, Nth: sc.nth, Workers: w.nproc}
	case reqReplay:
		p := w.pins[pin]
		return &sessiond.Request{Op: sessiond.OpReplay, Workload: p.name, Digest: p.digest}
	}
	r := w.recs[rec]
	return &sessiond.Request{Op: sessiond.OpRecord, Workload: r.name, Input: r.input, Seed: r.seed, Out: r.out}
}

// roundTrip sends one request and returns the response, decoding its
// result into v unless v is nil. A transport failure or a failure answer
// is an error.
func roundTrip(cl *sessiond.Client, req *sessiond.Request, v any) (*sessiond.Response, error) {
	resp, err := cl.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", req.Op, err)
	}
	if !resp.OK {
		return nil, fmt.Errorf("%s: %s: %s", req.Op, resp.Code, resp.Error)
	}
	if v != nil {
		if err := json.Unmarshal(resp.Result, v); err != nil {
			return nil, fmt.Errorf("%s result: %w", req.Op, err)
		}
	}
	return resp, nil
}

func (w *daemonMix) op(c *client) error {
	a := daemonAnswer{kind: daemonDeck[c.draw(0, len(daemonDeck))]}
	switch a.kind {
	case reqSlice:
		a.pin = pinDeck[c.draw(1, len(pinDeck))]
		a.crit = c.rng.IntN(len(w.pins[a.pin].crits))
	case reqReplay:
		a.pin = pinDeck[c.draw(1, len(pinDeck))]
	case reqRecord:
		a.rec = c.rng.IntN(len(w.recs))
	}
	req := w.request(a.kind, a.pin, a.crit, a.rec)
	c.start("request")
	resp, err := call(c, "sessiond."+req.Op, func() (*sessiond.Response, error) { return roundTrip(w.conns[c.id], req, nil) })
	if err != nil {
		return err
	}
	c.stop()

	a.code = resp.Code
	a.attempts = 1
	if resp.Report != nil {
		a.attempts += len(resp.Report.Attempts)
	}
	switch a.kind {
	case reqSlice:
		err = json.Unmarshal(resp.Result, &a.slice)
	case reqReplay:
		err = json.Unmarshal(resp.Result, &a.replay)
	case reqRecord:
		err = json.Unmarshal(resp.Result, &a.record)
	}
	if err != nil {
		return fmt.Errorf("%s result: %w", req.Op, err)
	}
	w.got[c.id] = append(w.got[c.id], a)
	return nil
}

// check compares every answer with an in-process reference: slice digests
// with the sequential slicer's, replays with the stored pinball's
// checkpoint count, recordings with an in-process recording of the same
// input and seed. A request whose answer fails any of them counts once.
func (w *daemonMix) check() ([]string, error) {
	var stats sessiond.StatsResult
	if _, err := roundTrip(w.conns[0], &sessiond.Request{Op: sessiond.OpStats}, &stats); err != nil {
		return nil, err
	}
	w.shed = stats.Rejected

	var bad []string
	for _, got := range w.got {
		for _, a := range got {
			problems, err := w.verify(a)
			if err != nil {
				return nil, err
			}
			if len(problems) > 0 {
				bad = append(bad, fmt.Sprintf("daemon %s: %s", reqOps[a.kind], strings.Join(problems, "; ")))
			}
		}
	}
	return bad, nil
}

// verify lists what is wrong with one answer.
func (w *daemonMix) verify(a daemonAnswer) ([]string, error) {
	var bad []string
	if a.code != "" {
		bad = append(bad, fmt.Sprintf("annotated %q", a.code))
	}
	switch a.kind {
	case reqSlice:
		want, err := w.sliceRef(a.pin, a.crit)
		if err != nil {
			return nil, err
		}
		if a.slice.Digest != want {
			bad = append(bad, fmt.Sprintf("%s %+v: digest %s, sequential %s",
				w.pins[a.pin].prog.Name, w.pins[a.pin].crits[a.crit], a.slice.Digest, want))
		}
	case reqReplay:
		pb := w.pins[a.pin].ref.Pinball
		if a.replay.Degraded || a.replay.Checked != len(pb.Checkpoints) || a.replay.Executed != pb.TotalQuantumInstrs() {
			bad = append(bad, fmt.Sprintf("%s: %+v, want %d checkpoints over %d instructions",
				pb.ProgramName, a.replay, len(pb.Checkpoints), pb.TotalQuantumInstrs()))
		}
	case reqRecord:
		r := &w.recs[a.rec]
		if r.ref == nil {
			var err error
			if r.ref, err = pinplay.Log(r.prog, pinplay.LogConfig{Seed: r.seed, Input: r.input}, pinplay.RegionSpec{}); err != nil {
				return nil, err
			}
			saved, err := pinball.Load(r.out)
			if err != nil {
				return nil, err
			}
			r.savedID = saved.ID()
		}
		if r.savedID != r.ref.ID() {
			bad = append(bad, fmt.Sprintf("%s seed %d: saved pinball %s, in-process recording %s", r.prog.Name, r.seed, r.savedID, r.ref.ID()))
		}
		if a.record.RegionInstrs != r.ref.RegionInstrs || a.record.Checkpoints != len(r.ref.Checkpoints) {
			bad = append(bad, fmt.Sprintf("%s seed %d: %+v, in-process recording has %d instructions, %d checkpoints",
				r.prog.Name, r.seed, a.record, r.ref.RegionInstrs, len(r.ref.Checkpoints)))
		}
	}
	return bad, nil
}

// sliceRef computes (once) the sequential slicer's digest for a pinball's
// criterion, resolving the criterion the way the daemon does.
func (w *daemonMix) sliceRef(pin, crit int) (string, error) {
	key := [2]int{pin, crit}
	if d, ok := w.refDigest[key]; ok {
		return d, nil
	}
	p, sc := w.pins[pin], w.pins[pin].crits[crit]
	ref, err := p.ref.ResolveCriterion(sc.varName, sc.tid, int32(sc.line), sc.nth)
	if err != nil {
		return "", err
	}
	tr, err := p.ref.Trace()
	if err != nil {
		return "", err
	}
	if p.seq == nil {
		if w.pins[pin].seq, err = slice.New(p.prog, tr, slice.DefaultOptions()); err != nil {
			return "", err
		}
	}
	sl, err := w.pins[pin].seq.Slice(ref)
	if err != nil {
		return "", err
	}
	w.refDigest[key] = slice.Summarize(sl).Digest
	return w.refDigest[key], nil
}

// probe re-records the hot pinball's region.
func (w *daemonMix) probe() probeInput {
	return probeInput{prog: w.pins[0].prog, lc: w.pins[0].lc, spec: pinplay.RegionSpec{LengthMain: w.main}}
}

func (w *daemonMix) layerCounters(m map[string]float64) {
	var replays, checked, requests, attempts int64
	for _, got := range w.got {
		for _, a := range got {
			requests++
			attempts += int64(a.attempts)
			if a.kind == reqReplay {
				replays++
				checked += int64(a.replay.Checked)
			}
		}
	}
	m["pinplay.checkpoints_per_replay"] = ratio(checked, replays)
	m["sessiond.shed_count"] = float64(w.shed)
	m["supervisor.attempts_per_request"] = ratio(attempts, requests)
}

// pid names the daemon: it is the process under test here.
func (w *daemonMix) pid() string { return strconv.Itoa(w.d.cmd.Process.Pid) }

func (w *daemonMix) close() error {
	for _, cl := range w.conns {
		cl.Close()
	}
	w.conns = nil
	if w.d == nil {
		return nil
	}
	err := w.d.stop()
	w.d = nil
	return err
}

// daemon is a child drserved process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logDone chan struct{} // closed once the child's stderr reached EOF
}

// startDaemon starts drserved on a free loopback port with the given
// store and waits until it listens. The daemon's log goes to logPath.
func startDaemon(bin, storeDir, logPath string, nproc int) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", storeDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc))
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start drserved: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.logDone:
		err := cmd.Wait()
		return nil, fmt.Errorf("drserved exited before listening (%v); log in %s", err, logPath)
	case <-time.After(30 * time.Second):
		return nil, errors.Join(fmt.Errorf("drserved did not listen within 30s"), d.stop())
	}
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// after its drain window, and waits until it has ended.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("stop drserved: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		<-d.logDone
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("drserved did not exit on SIGTERM; killed")
	}
}
