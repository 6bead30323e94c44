// Package debugger implements DrDebug's interactive front-end: a
// gdb-style command interpreter over the replay machinery. All the usual
// commands (breakpoints, stepping, printing, backtraces) work during
// deterministic replay of a pinball, and the DrDebug extensions — region
// recording, dynamic slicing, slice navigation, execution-slice stepping —
// are available as additional commands, mirroring the paper's extended
// GDB/KDbg interface (state modification is unsupported, as in the paper).
package debugger

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/vm"
)

// mode says what kind of machine the debugger is driving.
type mode int

const (
	modeNone   mode = iota
	modeNative      // original execution (for recording regions)
	modeReplay      // deterministic replay of the session pinball
)

// breakpoint is one user breakpoint.
type breakpoint struct {
	id   int
	pc   int64
	spec string
}

// watchpoint stops execution when a memory word changes value.
type watchpoint struct {
	id   int
	addr int64
	spec string
	last int64
}

// Debugger drives one program. Create with New, feed commands to Execute
// or run a REPL with Run.
type Debugger struct {
	prog *isa.Program
	cfg  pinplay.LogConfig

	m        *vm.Machine
	mode     mode
	executed int64 // instructions replayed (region-end detection)
	total    int64

	sess     *core.Session
	recorder *pinplay.Recorder
	rr       *core.ReverseReplayer

	curSlice *slice.Slice
	stepper  *core.Stepper

	bps    []breakpoint
	wps    []watchpoint
	nextBP int
	curTid int

	out io.Writer
}

// New creates a debugger for prog. cfg configures native executions
// (scheduling seed, program input).
func New(prog *isa.Program, cfg pinplay.LogConfig) *Debugger {
	return &Debugger{prog: prog, cfg: cfg, nextBP: 1}
}

// Session returns the current debug session (nil before a region is
// recorded or loaded).
func (d *Debugger) Session() *core.Session { return d.sess }

// UseSession attaches an existing session (e.g. a pinball recorded by
// Maple) so the debugger starts directly in replay mode. It fails when
// the session's replay cannot be prepared (a flight-recorder pinball
// whose gaps do not bridge).
func (d *Debugger) UseSession(s *core.Session) error {
	d.sess = s
	return d.startReplay()
}

// Run reads commands from r until EOF or quit, writing responses to w.
func (d *Debugger) Run(r io.Reader, w io.Writer) error {
	d.out = w
	var buf [4096]byte
	var line strings.Builder
	prompt := func() { fmt.Fprint(w, "(drdebug) ") }
	prompt()
	for {
		n, err := r.Read(buf[:])
		if n > 0 {
			for _, c := range buf[:n] {
				if c != '\n' {
					line.WriteByte(c)
					continue
				}
				cmd := strings.TrimSpace(line.String())
				line.Reset()
				if cmd == "quit" || cmd == "q" {
					return nil
				}
				if cmd != "" {
					if err := d.Execute(cmd, w); err != nil {
						fmt.Fprintf(w, "error: %v\n", err)
					}
				}
				prompt()
			}
		}
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// Execute runs one command, writing output to w.
func (d *Debugger) Execute(cmdline string, w io.Writer) error {
	d.out = w
	f := strings.Fields(cmdline)
	if len(f) == 0 {
		return nil
	}
	args := f[1:]
	switch f[0] {
	case "help", "h":
		d.help()
	case "run", "r":
		return d.cmdRun()
	case "record":
		return d.cmdRecord(args)
	case "replay":
		return d.cmdReplay()
	case "continue", "c":
		return d.cmdContinue()
	case "stepi", "si":
		return d.cmdStepi()
	case "step", "s":
		return d.cmdStep()
	case "next", "n":
		return d.cmdNext()
	case "finish", "fin":
		return d.cmdFinish()
	case "break", "b":
		return d.cmdBreak(args)
	case "watch", "w":
		return d.cmdWatch(args)
	case "delete", "d":
		return d.cmdDelete(args)
	case "info":
		return d.cmdInfo(args)
	case "thread", "t":
		return d.cmdThread(args)
	case "print", "p":
		return d.cmdPrint(args)
	case "backtrace", "bt":
		return d.cmdBacktrace()
	case "list", "l":
		return d.cmdList()
	case "where":
		d.reportStop()
	case "slice":
		return d.cmdSlice(args)
	case "execslice":
		return d.cmdExecSlice()
	case "slicestep", "ss":
		return d.cmdSliceStep(false)
	case "sliceinstr":
		return d.cmdSliceStep(true)
	case "reverse-stepi", "rsi":
		return d.cmdReverseStepi(args)
	case "reverse-continue", "rc":
		return d.cmdReverseContinue()
	case "races":
		return d.cmdRaces()
	case "deps":
		return d.cmdDeps(args)
	case "save":
		return d.cmdSave(args)
	default:
		return fmt.Errorf("unknown command %q (try help)", f[0])
	}
	return nil
}

func (d *Debugger) help() {
	fmt.Fprint(d.out, `commands:
  run                      start the program (native execution)
  record on|off            capture an execution region into the session pinball
  replay                   (re)start deterministic replay of the session pinball
  continue / c             resume until breakpoint or stop
  step / s, stepi / si     source-line step / instruction step
  next / n                 source-line step, stepping over calls
  finish / fin             run until the current function returns
  break <file:line|fn|pc>  set breakpoint; delete <id> removes
  watch <var>|<var[i]>|*<addr>  stop when the memory word changes
  info breakpoints|threads|registers
  thread <tid>             select thread
  print <var>|$rN|$pc|*<addr>
  backtrace / bt           call stack of the selected thread
  list / l                 disassemble around the stop point
  where                    report the current stop
  slice [var|at <tid> <line> [nth]|show|html <path>|save <path>|load <path>]
                           compute/inspect dynamic slices (replay mode)
  execslice                build the slice pinball for the current slice
  slicestep / ss           step to the next statement in the execution slice
  sliceinstr               step to the next instruction in the execution slice
  reverse-stepi / rsi [n]  step n instructions backwards (replay mode)
  reverse-continue / rc    run backwards to the previous breakpoint hit
  races                    happens-before race detection over the region
  deps [tid idx]           navigate slice dependences backwards (from the
                           criterion, or from slice member tid@idx)
  save pinball <path>      save the session pinball
  quit / q
`)
}

// cmdRun starts a native execution and runs to the first stop.
func (d *Debugger) cmdRun() error {
	maxSteps := d.cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 2_000_000_000
	}
	mq := d.cfg.MeanQuantum
	if mq <= 0 {
		mq = 1000
	}
	d.m = vm.New(d.prog, vm.Config{
		Sched:    vm.NewRandomScheduler(d.cfg.Seed, mq),
		Env:      vm.NewNativeEnv(d.cfg.Input, d.cfg.RandSeed),
		MaxSteps: maxSteps,
	})
	d.mode = modeNative
	d.total = 0
	fmt.Fprintf(d.out, "starting %s (native, seed %d)\n", d.prog.Name, d.cfg.Seed)
	return d.resume(false)
}

// cmdRecord toggles region recording on the native machine.
func (d *Debugger) cmdRecord(args []string) error {
	if len(args) != 1 || (args[0] != "on" && args[0] != "off") {
		return fmt.Errorf("usage: record on|off")
	}
	if args[0] == "on" {
		if d.mode != modeNative || d.m == nil {
			return fmt.Errorf("record on requires a running native execution (use run)")
		}
		if d.recorder != nil {
			return fmt.Errorf("already recording")
		}
		if !d.m.Running() {
			return fmt.Errorf("the program has stopped (%v); restart with run", d.m.Stopped())
		}
		d.recorder = pinplay.StartRecording(d.m)
		fmt.Fprintln(d.out, "recording region...")
		return nil
	}
	if d.recorder == nil {
		return fmt.Errorf("not recording")
	}
	reason := "manual"
	if !d.m.Running() {
		reason = d.m.Stopped().String()
	}
	pb := d.recorder.Finish(d.m, reason)
	d.recorder = nil
	d.sess = core.Open(d.prog, pb)
	fmt.Fprintf(d.out, "region pinball captured: %d instructions (%d in main thread), end: %s\n",
		pb.RegionInstrs, pb.MainInstrs, pb.EndReason)
	if pb.Failure != nil {
		fmt.Fprintf(d.out, "captured failure: %v\n", pb.Failure)
	}
	return nil
}

// startReplay rebuilds the replay machine at region entry, with reverse
// debugging enabled through periodic checkpoints.
func (d *Debugger) startReplay() error {
	rr, err := d.sess.NewReverseReplayer(0)
	if err != nil {
		return err
	}
	d.rr = rr
	d.m = d.rr.Machine()
	d.mode = modeReplay
	d.executed = 0
	d.total = d.rr.Total()
	return nil
}

// stepOnce advances one instruction through whichever engine is active.
// When execution cannot continue it reports the stop and returns false;
// a replay that diverges from the recording returns false with the
// error.
func (d *Debugger) stepOnce() (bool, error) {
	ok := false
	if d.mode == modeReplay && d.rr != nil {
		var err error
		ok, err = d.rr.StepForward()
		d.m = d.rr.Machine()
		d.executed = d.rr.Executed()
		if err != nil {
			return false, err
		}
	} else if ok = d.m.StepOne(); ok {
		d.executed++
	}
	if !ok {
		d.reportStop()
	}
	return ok, nil
}

// cmdReplay restarts deterministic replay — one iteration of the cyclic
// debugging loop.
func (d *Debugger) cmdReplay() error {
	if d.sess == nil {
		return fmt.Errorf("no session pinball (record a region or load one)")
	}
	if err := d.startReplay(); err != nil {
		return err
	}
	fmt.Fprintf(d.out, "replaying region pinball (%d instructions)\n", d.total)
	return nil
}

// atRegionEnd reports whether a replay consumed the whole region.
func (d *Debugger) atRegionEnd() bool {
	return d.mode == modeReplay && d.executed >= d.total
}

// resume runs until a breakpoint, machine stop, or region end.
// skipCurrent suppresses a breakpoint match on the very first instruction
// (continuing *from* a breakpoint must make progress).
func (d *Debugger) resume(skipCurrent bool) error {
	if d.m == nil {
		return fmt.Errorf("nothing is running (use run or replay)")
	}
	first := skipCurrent
	for {
		if d.atRegionEnd() {
			fmt.Fprintln(d.out, "end of recorded region")
			return nil
		}
		t := d.m.CurThread()
		if t == nil {
			d.reportStop()
			return nil
		}
		if !first && d.bpAt(t.PC) != nil {
			d.curTid = t.ID
			bp := d.bpAt(t.PC)
			fmt.Fprintf(d.out, "breakpoint %d hit: thread %d at %s\n", bp.id, t.ID, d.loc(t.PC))
			return nil
		}
		first = false
		if ok, err := d.stepOnce(); !ok {
			return err
		}
		if wp := d.watchHit(); wp != nil {
			if t := d.m.CurThread(); t != nil {
				d.curTid = t.ID
			}
			fmt.Fprintf(d.out, "watchpoint %d hit: %s changed to %d\n", wp.id, wp.spec, wp.last)
			return nil
		}
	}
}

// watchHit refreshes watched values and returns the first watchpoint
// whose word changed since the last check.
func (d *Debugger) watchHit() *watchpoint {
	for i := range d.wps {
		wp := &d.wps[i]
		if v := d.m.Mem.Read(wp.addr); v != wp.last {
			wp.last = v
			return wp
		}
	}
	return nil
}

// resolveWatchSpec maps <var>, <var[idx]> or *<addr> to a memory address.
func (d *Debugger) resolveWatchSpec(spec string) (int64, error) {
	if strings.HasPrefix(spec, "*") {
		addr, err := strconv.ParseInt(spec[1:], 10, 64)
		if err != nil || addr < 0 {
			return 0, fmt.Errorf("bad address %q", spec)
		}
		return addr, nil
	}
	name := spec
	idx := int64(0)
	if i := strings.IndexByte(spec, '['); i >= 0 && strings.HasSuffix(spec, "]") {
		name = spec[:i]
		v, err := strconv.ParseInt(spec[i+1:len(spec)-1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad index in %q", spec)
		}
		idx = v
	}
	sym := d.prog.SymbolByName(name)
	if sym == nil {
		return 0, fmt.Errorf("no global variable %q", name)
	}
	if idx < 0 || idx >= sym.Size {
		return 0, fmt.Errorf("index %d out of range for %s[%d]", idx, name, sym.Size)
	}
	return sym.Addr + idx, nil
}

// cmdWatch sets a watchpoint on a memory word.
func (d *Debugger) cmdWatch(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: watch <var>|<var[idx]>|*<addr>")
	}
	addr, err := d.resolveWatchSpec(args[0])
	if err != nil {
		return err
	}
	cur := int64(0)
	if d.m != nil {
		cur = d.m.Mem.Read(addr)
	}
	wp := watchpoint{id: d.nextBP, addr: addr, spec: args[0], last: cur}
	d.nextBP++
	d.wps = append(d.wps, wp)
	fmt.Fprintf(d.out, "watchpoint %d on %s (word %d, currently %d)\n", wp.id, wp.spec, addr, cur)
	return nil
}

func (d *Debugger) cmdContinue() error { return d.resume(true) }

// cmdStepi executes exactly one instruction.
func (d *Debugger) cmdStepi() error {
	if d.m == nil {
		return fmt.Errorf("nothing is running")
	}
	if d.atRegionEnd() {
		fmt.Fprintln(d.out, "end of recorded region")
		return nil
	}
	if ok, err := d.stepOnce(); !ok {
		return err
	}
	if t := d.m.CurThread(); t != nil {
		d.curTid = t.ID
		fmt.Fprintf(d.out, "thread %d at %s\n", t.ID, d.loc(t.PC))
	}
	return nil
}

// cmdStep advances until the next instruction to execute has a different
// source line (a simplified source-line step over the interleaved
// execution).
func (d *Debugger) cmdStep() error {
	if d.m == nil {
		return fmt.Errorf("nothing is running")
	}
	t := d.m.CurThread()
	if t == nil {
		d.reportStop()
		return nil
	}
	startLine := d.prog.LineOf(t.PC)
	startTid := t.ID
	for {
		if d.atRegionEnd() {
			fmt.Fprintln(d.out, "end of recorded region")
			return nil
		}
		if ok, err := d.stepOnce(); !ok {
			return err
		}
		t = d.m.CurThread()
		if t == nil {
			d.reportStop()
			return nil
		}
		if t.ID == startTid && d.prog.LineOf(t.PC) != startLine {
			d.curTid = t.ID
			fmt.Fprintf(d.out, "thread %d at %s\n", t.ID, d.loc(t.PC))
			return nil
		}
	}
}

// cmdNext is a source-line step that does not descend into calls: when
// the pending instruction is a call, execution runs until the callee
// returns (stack pointer back above the call's frame) before line
// progress is considered.
func (d *Debugger) cmdNext() error {
	if d.m == nil {
		return fmt.Errorf("nothing is running")
	}
	t := d.m.CurThread()
	if t == nil {
		d.reportStop()
		return nil
	}
	startTid := t.ID
	startLine := d.prog.LineOf(t.PC)
	startSP := t.Regs[isa.SP]
	for {
		if d.atRegionEnd() {
			fmt.Fprintln(d.out, "end of recorded region")
			return nil
		}
		if ok, err := d.stepOnce(); !ok {
			return err
		}
		t = d.m.CurThread()
		if t == nil {
			d.reportStop()
			return nil
		}
		if t.ID != startTid {
			continue
		}
		// Inside a callee: the stack has grown below the starting frame.
		if t.Regs[isa.SP] < startSP {
			continue
		}
		if d.prog.LineOf(t.PC) != startLine {
			d.curTid = t.ID
			fmt.Fprintf(d.out, "thread %d at %s\n", t.ID, d.loc(t.PC))
			return nil
		}
	}
}

// cmdFinish runs until the selected thread returns from its current
// function (its stack pointer rises above the saved frame).
func (d *Debugger) cmdFinish() error {
	if d.m == nil {
		return fmt.Errorf("nothing is running")
	}
	t := d.m.CurThread()
	if t == nil {
		d.reportStop()
		return nil
	}
	startTid := t.ID
	// After the epilogue pops the saved fp and the return address, SP
	// ends above the current frame pointer.
	targetSP := t.Regs[isa.FP] + 1
	fn := d.prog.FuncAt(t.PC)
	for {
		if d.atRegionEnd() {
			fmt.Fprintln(d.out, "end of recorded region")
			return nil
		}
		if ok, err := d.stepOnce(); !ok {
			return err
		}
		t = d.m.CurThread()
		if t == nil {
			d.reportStop()
			return nil
		}
		if t.ID != startTid || t.Regs[isa.SP] <= targetSP {
			continue
		}
		if fn != nil && fn.Contains(t.PC) {
			continue
		}
		d.curTid = t.ID
		fmt.Fprintf(d.out, "returned: thread %d at %s ($r0 = %d)\n", t.ID, d.loc(t.PC), t.Regs[isa.RetReg])
		return nil
	}
}

// loc renders a pc as "pc N (file:line, func)".
func (d *Debugger) loc(pc int64) string {
	fn := "?"
	if f := d.prog.FuncAt(pc); f != nil {
		fn = f.Name
	}
	return fmt.Sprintf("pc %d (%s, %s)", pc, d.prog.SourceOf(pc), fn)
}

// reportStop explains why the machine is stopped.
func (d *Debugger) reportStop() {
	if d.m == nil {
		fmt.Fprintln(d.out, "not running")
		return
	}
	switch d.m.Stopped() {
	case vm.StopNone:
		if t := d.m.CurThread(); t != nil {
			fmt.Fprintf(d.out, "thread %d at %s\n", t.ID, d.loc(t.PC))
		}
	case vm.StopFailure:
		f := d.m.Failure()
		fmt.Fprintf(d.out, "program failed: %v\n", f)
	default:
		fmt.Fprintf(d.out, "program stopped: %v\n", d.m.Stopped())
	}
}

// bpAt returns the breakpoint at pc, or nil.
func (d *Debugger) bpAt(pc int64) *breakpoint {
	for i := range d.bps {
		if d.bps[i].pc == pc {
			return &d.bps[i]
		}
	}
	return nil
}

// resolveBreakSpec maps "file:line", a function name, or a raw pc to a pc.
func (d *Debugger) resolveBreakSpec(spec string) (int64, error) {
	return d.prog.ResolveLocation(spec)
}

func (d *Debugger) cmdBreak(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: break <file:line|function|pc>")
	}
	pc, err := d.resolveBreakSpec(args[0])
	if err != nil {
		return err
	}
	bp := breakpoint{id: d.nextBP, pc: pc, spec: args[0]}
	d.nextBP++
	d.bps = append(d.bps, bp)
	fmt.Fprintf(d.out, "breakpoint %d at %s\n", bp.id, d.loc(pc))
	return nil
}

func (d *Debugger) cmdDelete(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: delete <id>")
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("bad breakpoint id %q", args[0])
	}
	for i := range d.bps {
		if d.bps[i].id == id {
			d.bps = append(d.bps[:i], d.bps[i+1:]...)
			fmt.Fprintf(d.out, "deleted breakpoint %d\n", id)
			return nil
		}
	}
	for i := range d.wps {
		if d.wps[i].id == id {
			d.wps = append(d.wps[:i], d.wps[i+1:]...)
			fmt.Fprintf(d.out, "deleted watchpoint %d\n", id)
			return nil
		}
	}
	return fmt.Errorf("no breakpoint %d", id)
}

func (d *Debugger) cmdInfo(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: info breakpoints|threads|registers")
	}
	switch args[0] {
	case "breakpoints", "b":
		if len(d.bps) == 0 && len(d.wps) == 0 {
			fmt.Fprintln(d.out, "no breakpoints")
			return nil
		}
		for _, bp := range d.bps {
			fmt.Fprintf(d.out, "%d: %s -> %s\n", bp.id, bp.spec, d.loc(bp.pc))
		}
		for _, wp := range d.wps {
			fmt.Fprintf(d.out, "%d: watch %s (word %d)\n", wp.id, wp.spec, wp.addr)
		}
	case "threads", "t":
		if d.m == nil {
			return fmt.Errorf("nothing is running")
		}
		for _, t := range d.m.Threads {
			marker := " "
			if t.ID == d.curTid {
				marker = "*"
			}
			fmt.Fprintf(d.out, "%s thread %d: %-14s %s (executed %d)\n",
				marker, t.ID, t.Status, d.loc(t.PC), t.Count)
		}
	case "registers", "r":
		if d.m == nil {
			return fmt.Errorf("nothing is running")
		}
		t, err := d.selThread()
		if err != nil {
			return err
		}
		for r := isa.R0; r < isa.NumRegs; r++ {
			if r != isa.RZ {
				fmt.Fprintf(d.out, "%-3s %20d\n", r, t.Regs[r])
			}
		}
		fmt.Fprintf(d.out, "pc  %20d\n", t.PC)
	default:
		return fmt.Errorf("unknown info %q", args[0])
	}
	return nil
}

func (d *Debugger) selThread() (*vm.Thread, error) {
	if d.m == nil {
		return nil, fmt.Errorf("nothing is running")
	}
	if d.curTid < len(d.m.Threads) {
		return d.m.Threads[d.curTid], nil
	}
	return nil, fmt.Errorf("no thread %d", d.curTid)
}

func (d *Debugger) cmdThread(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: thread <tid>")
	}
	tid, err := strconv.Atoi(args[0])
	if err != nil || d.m == nil || tid < 0 || tid >= len(d.m.Threads) {
		return fmt.Errorf("no thread %q", args[0])
	}
	d.curTid = tid
	fmt.Fprintf(d.out, "selected thread %d\n", tid)
	return nil
}

// cmdPrint evaluates a simple expression: global variable (optionally
// with [index]), $rN / $pc / $sp / $fp, or *addr.
func (d *Debugger) cmdPrint(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: print <var>|<var[idx]>|$rN|$pc|*<addr>")
	}
	if d.m == nil {
		return fmt.Errorf("nothing is running")
	}
	expr := args[0]
	switch {
	case strings.HasPrefix(expr, "$"):
		t, err := d.selThread()
		if err != nil {
			return err
		}
		name := expr[1:]
		if name == "pc" {
			fmt.Fprintf(d.out, "$pc = %d\n", t.PC)
			return nil
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if r.String() == name {
				fmt.Fprintf(d.out, "%s = %d\n", expr, t.Regs[r])
				return nil
			}
		}
		return fmt.Errorf("unknown register %q", name)
	case strings.HasPrefix(expr, "*"):
		addr, err := strconv.ParseInt(expr[1:], 10, 64)
		if err != nil || addr < 0 {
			return fmt.Errorf("bad address %q", expr[1:])
		}
		fmt.Fprintf(d.out, "*%d = %d\n", addr, d.m.Mem.Read(addr))
		return nil
	default:
		name := expr
		idx := int64(0)
		if i := strings.IndexByte(expr, '['); i >= 0 && strings.HasSuffix(expr, "]") {
			name = expr[:i]
			v, err := strconv.ParseInt(expr[i+1:len(expr)-1], 10, 64)
			if err != nil {
				return fmt.Errorf("bad index in %q", expr)
			}
			idx = v
		}
		sym := d.prog.SymbolByName(name)
		if sym == nil {
			return fmt.Errorf("no global variable %q (locals live in registers; use info registers)", name)
		}
		if idx < 0 || idx >= sym.Size {
			return fmt.Errorf("index %d out of range for %s[%d]", idx, name, sym.Size)
		}
		fmt.Fprintf(d.out, "%s = %d\n", expr, d.m.Mem.Read(sym.Addr+idx))
		return nil
	}
}

// cmdBacktrace walks the selected thread's frame-pointer chain.
func (d *Debugger) cmdBacktrace() error {
	t, err := d.selThread()
	if err != nil {
		return err
	}
	pc := t.PC
	fp := t.Regs[isa.FP]
	fmt.Fprintf(d.out, "thread %d:\n", t.ID)
	for depth := 0; depth < 64; depth++ {
		fmt.Fprintf(d.out, "#%d %s\n", depth, d.loc(pc))
		var ra int64
		if fn := d.prog.FuncAt(pc); depth == 0 && fn != nil && pc == fn.Entry {
			// Stopped at a function entry: the prologue has not run, so
			// the return address is still on top of the stack and the
			// frame pointer is the caller's.
			ra = d.m.Mem.Read(t.Regs[isa.SP])
		} else {
			// Frame layout after the prologue: [fp] holds the caller's
			// frame pointer, [fp+1] the return address.
			ra = d.m.Mem.Read(fp + 1)
			fp = d.m.Mem.Read(fp)
		}
		if ra < 0 || ra >= int64(len(d.prog.Code)) {
			return nil
		}
		pc = ra
		if fp <= 0 {
			return nil
		}
	}
	return nil
}

// cmdList disassembles around the selected thread's pc.
func (d *Debugger) cmdList() error {
	t, err := d.selThread()
	if err != nil {
		return err
	}
	lo := t.PC - 4
	if lo < 0 {
		lo = 0
	}
	hi := t.PC + 5
	if hi > int64(len(d.prog.Code)) {
		hi = int64(len(d.prog.Code))
	}
	for pc := lo; pc < hi; pc++ {
		marker := "  "
		if pc == t.PC {
			marker = "=>"
		}
		fmt.Fprintf(d.out, "%s %5d  %-28s %s\n", marker, pc, d.prog.Code[pc].String(), d.prog.SourceOf(pc))
	}
	return nil
}

// cmdSlice handles the slice command family.
func (d *Debugger) cmdSlice(args []string) error {
	if d.sess == nil {
		return fmt.Errorf("slicing requires a session pinball (record or load one)")
	}
	if len(args) == 0 {
		sl, err := d.sess.SliceAtFailure()
		if err != nil {
			return err
		}
		d.curSlice = sl
		d.printSliceSummary(sl)
		return nil
	}
	switch args[0] {
	case "show":
		if d.curSlice == nil {
			return fmt.Errorf("no current slice")
		}
		f, err := d.sess.SliceFile(d.curSlice)
		if err != nil {
			return err
		}
		return f.WriteText(d.out)
	case "html":
		if len(args) != 2 {
			return fmt.Errorf("usage: slice html <path>")
		}
		if d.curSlice == nil {
			return fmt.Errorf("no current slice")
		}
		f, err := d.sess.SliceFile(d.curSlice)
		if err != nil {
			return err
		}
		w, err := os.Create(args[1])
		if err != nil {
			return err
		}
		defer w.Close()
		if err := f.WriteHTML(w, nil); err != nil {
			return err
		}
		fmt.Fprintf(d.out, "HTML slice report written to %s\n", args[1])
		return nil
	case "save":
		if len(args) != 2 {
			return fmt.Errorf("usage: slice save <path>")
		}
		if d.curSlice == nil {
			return fmt.Errorf("no current slice")
		}
		if err := d.sess.SaveSlice(d.curSlice, args[1]); err != nil {
			return err
		}
		fmt.Fprintf(d.out, "slice saved to %s\n", args[1])
		return nil
	case "load":
		if len(args) != 2 {
			return fmt.Errorf("usage: slice load <path>")
		}
		sl, err := d.sess.LoadSlice(args[1])
		if err != nil {
			return err
		}
		d.curSlice = sl
		d.printSliceSummary(sl)
		return nil
	case "at":
		if len(args) < 3 {
			return fmt.Errorf("usage: slice at <tid> <line> [instance]")
		}
		tid, err1 := strconv.Atoi(args[1])
		line, err2 := strconv.Atoi(args[2])
		nth := 1
		if len(args) > 3 {
			nth, _ = strconv.Atoi(args[3])
		}
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad tid/line")
		}
		sl, err := d.sess.SliceAtLine(tid, int32(line), nth)
		if err != nil {
			return err
		}
		d.curSlice = sl
		d.printSliceSummary(sl)
		return nil
	default:
		// slice <var>
		sl, err := d.sess.SliceForVariable(args[0])
		if err != nil {
			return err
		}
		d.curSlice = sl
		d.printSliceSummary(sl)
		return nil
	}
}

func (d *Debugger) printSliceSummary(sl *slice.Slice) {
	tr, err := d.sess.Trace()
	if err != nil {
		fmt.Fprintf(d.out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(d.out, "slice: %d of %d dynamic instructions (%d verified save/restore pairs, %d bypasses, %d CFG refinements)\n",
		sl.Stats.Members, sl.Stats.TraceLen, sl.Stats.VerifiedPairs, sl.Stats.PrunedBypasses, sl.Stats.CFGRefinements)
	// Show the distinct source lines, most recent first.
	seen := map[string]bool{}
	var srcs []string
	for i := len(sl.Members) - 1; i >= 0; i-- {
		src := d.prog.SourceOf(tr.Entry(sl.Members[i]).PC)
		if !seen[src] {
			seen[src] = true
			srcs = append(srcs, src)
		}
	}
	sort.Strings(srcs)
	fmt.Fprintf(d.out, "statements: %s\n", strings.Join(srcs, " "))
}

// cmdExecSlice turns the current slice into a slice pinball and prepares
// slice stepping.
func (d *Debugger) cmdExecSlice() error {
	if d.curSlice == nil {
		return fmt.Errorf("no current slice (use slice first)")
	}
	st, err := d.sess.NewStepper(d.curSlice)
	if err != nil {
		return err
	}
	d.stepper = st
	fmt.Fprintln(d.out, "slice pinball generated; use slicestep to walk the execution slice")
	return nil
}

// cmdSliceStep advances the execution-slice replay to the next statement
// (or instruction).
func (d *Debugger) cmdSliceStep(instrLevel bool) error {
	if d.stepper == nil {
		return fmt.Errorf("no execution slice (use execslice first)")
	}
	var p *core.StepPoint
	var err error
	if instrLevel {
		p, err = d.stepper.NextInstr()
	} else {
		p, err = d.stepper.NextStatement()
	}
	if err != nil {
		return err
	}
	if p == nil {
		fmt.Fprintln(d.out, "end of execution slice")
		return nil
	}
	if p.HasValue {
		fmt.Fprintf(d.out, "slice: thread %d at %s (computed %d)\n", p.Tid, d.loc(p.PC), p.Value)
	} else {
		fmt.Fprintf(d.out, "slice: thread %d at %s\n", p.Tid, d.loc(p.PC))
	}
	// Make print/backtrace look at the slice-replay machine.
	d.m = d.stepper.Machine()
	d.curTid = p.Tid
	return nil
}

// cmdReverseStepi steps n instructions backwards in the replayed region:
// restore the nearest earlier checkpoint, replay forward (the paper's
// proposed pinball-based reverse debugging).
func (d *Debugger) cmdReverseStepi(args []string) error {
	if d.mode != modeReplay || d.rr == nil {
		return fmt.Errorf("reverse debugging requires replay mode (use replay)")
	}
	n := int64(1)
	if len(args) == 1 {
		v, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("bad count %q", args[0])
		}
		n = v
	}
	if err := d.rr.StepBack(n); err != nil {
		return err
	}
	d.m = d.rr.Machine()
	d.executed = d.rr.Executed()
	if t := d.m.CurThread(); t != nil {
		d.curTid = t.ID
		fmt.Fprintf(d.out, "back at position %d: thread %d at %s\n", d.executed, t.ID, d.loc(t.PC))
	} else {
		fmt.Fprintf(d.out, "back at position %d\n", d.executed)
	}
	return nil
}

// cmdReverseContinue runs backwards to the most recent earlier position
// at which a breakpoint would trigger. Implemented as a deterministic
// forward scan from region entry (accelerated by the checkpoints).
func (d *Debugger) cmdReverseContinue() error {
	if d.mode != modeReplay || d.rr == nil {
		return fmt.Errorf("reverse debugging requires replay mode (use replay)")
	}
	if len(d.bps) == 0 {
		return fmt.Errorf("no breakpoints to run back to")
	}
	cur := d.rr.Executed()
	if err := d.rr.RunTo(0); err != nil {
		return err
	}
	lastHit := int64(-1)
	for d.rr.Executed() < cur {
		if t := d.rr.Machine().CurThread(); t != nil && d.bpAt(t.PC) != nil {
			lastHit = d.rr.Executed()
		}
		ok, err := d.rr.StepForward()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	if lastHit < 0 {
		// No earlier hit: stay at region entry.
		if err := d.rr.RunTo(0); err != nil {
			return err
		}
		d.m = d.rr.Machine()
		d.executed = 0
		fmt.Fprintln(d.out, "no earlier breakpoint hit; at region entry")
		return nil
	}
	if err := d.rr.RunTo(lastHit); err != nil {
		return err
	}
	d.m = d.rr.Machine()
	d.executed = d.rr.Executed()
	t := d.m.CurThread()
	bp := d.bpAt(t.PC)
	d.curTid = t.ID
	fmt.Fprintf(d.out, "breakpoint %d hit (reverse): thread %d at %s\n", bp.id, t.ID, d.loc(t.PC))
	return nil
}

// cmdRaces runs happens-before race detection over the session's trace
// and prints each race with source positions.
func (d *Debugger) cmdRaces() error {
	if d.sess == nil {
		return fmt.Errorf("race detection requires a session pinball")
	}
	rep, err := d.sess.DetectRaces()
	if err != nil {
		return err
	}
	tr, err := d.sess.Trace()
	if err != nil {
		return err
	}
	if len(rep.Races) == 0 {
		fmt.Fprintf(d.out, "no data races in region (%d shared accesses checked)\n", rep.Checked)
		return nil
	}
	fmt.Fprintf(d.out, "%d data race(s) in region (%d shared accesses checked):\n", len(rep.Races), rep.Checked)
	for i, r := range rep.Races {
		fmt.Fprintf(d.out, "%d: %s\n", i+1, r.Describe(tr, d.prog))
	}
	fmt.Fprintln(d.out, "use 'slice at <tid> <line>' on a racy access to slice its root cause")
	return nil
}

// cmdDeps navigates the current slice's dependence edges backwards — the
// KDbg GUI's "Activate" workflow as text.
func (d *Debugger) cmdDeps(args []string) error {
	if d.curSlice == nil {
		return fmt.Errorf("no current slice (use slice first)")
	}
	tr, err := d.sess.Trace()
	if err != nil {
		return err
	}
	nav := slice.NewNavigator(tr, d.curSlice)
	ref := nav.Criterion()
	if len(args) == 2 {
		tid, err1 := strconv.Atoi(args[0])
		idx, err2 := strconv.ParseInt(args[1], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("usage: deps [tid idx]")
		}
		ref, err = nav.ResolveMember(tid, idx)
		if err != nil {
			return err
		}
	} else if len(args) != 0 {
		return fmt.Errorf("usage: deps [tid idx]")
	}
	fmt.Fprintf(d.out, "direct dependences of %s:\n", nav.Describe(d.prog, ref))
	for _, dep := range nav.DependsOn(ref) {
		marker := ""
		if dep.From.Tid != dep.To.Tid {
			marker = " [cross-thread]"
		}
		fmt.Fprintf(d.out, "  %-7s <- %s%s\n", dep.Kind, nav.Describe(d.prog, dep.To), marker)
	}
	fmt.Fprintln(d.out, "value chain (first dependence at each hop):")
	nav.WriteChain(d.out, d.prog, ref, 6)
	return nil
}

// cmdSave persists session artifacts.
func (d *Debugger) cmdSave(args []string) error {
	if len(args) != 2 || args[0] != "pinball" {
		return fmt.Errorf("usage: save pinball <path>")
	}
	if d.sess == nil {
		return fmt.Errorf("no session pinball")
	}
	if err := d.sess.Pinball.Save(args[1]); err != nil {
		return err
	}
	fmt.Fprintf(d.out, "pinball saved to %s\n", args[1])
	return nil
}
