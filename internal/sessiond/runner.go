package sessiond

import (
	"encoding/json"
	"errors"
	"fmt"

	drdebug "repro"
	"repro/internal/core"
	"repro/internal/pinball"
	"repro/internal/slice"
	"repro/internal/supervisor"
	"repro/internal/tracer"
	"repro/internal/vm"
)

// badRequestError is a malformed-request rejection; the server maps it
// to CodeBadRequest.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return "sessiond: bad request: " + e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{fmt.Sprintf(format, args...)}
}

// kindToCode maps the supervisor's failure classification onto the wire
// protocol's typed codes.
func kindToCode(k supervisor.Kind) string {
	switch k {
	case supervisor.KindPanic:
		return CodePanic
	case supervisor.KindTimeout:
		return CodeTimeout
	case supervisor.KindDivergence:
		return CodeDivergence
	case supervisor.KindCorrupt:
		return CodeCorrupt
	case supervisor.KindLimit:
		return CodeLimit
	}
	return CodeInternal
}

// errorCode types an arbitrary session failure for the wire.
func errorCode(err error) string {
	var qe *quotaError
	var be *badRequestError
	var se *supervisor.SessionError
	switch {
	case errors.As(err, &qe):
		return CodeQuota
	case errors.As(err, &be):
		return CodeBadRequest
	case errors.Is(err, ErrDraining):
		return CodeDraining
	case errors.Is(err, ErrOverload), errors.Is(err, ErrClientOverload):
		return CodeOverload
	case errors.As(err, &se):
		return kindToCode(se.Kind)
	}
	// Failures outside a supervised phase (e.g. loading the pinball for
	// a slice criterion) classify the same way the supervisor would.
	return kindToCode(supervisor.Classify(err))
}

// pinballAttributable reports whether a failure code blames the pinball
// content itself — the codes the circuit breaker counts. Quota, limit
// and bad-request failures are the *request's* fault and must not poison
// the pinball's circuit.
func pinballAttributable(code string) bool {
	switch code {
	case CodeCorrupt, CodeDivergence, CodeTimeout, CodePanic:
		return true
	}
	return false
}

// sessionResult is what one executed session hands the server loop.
type sessionResult struct {
	result     json.RawMessage
	annotation string // CodeSalvaged / CodeDegraded, "" for a clean run
	report     *supervisor.Report
}

// runner executes one admitted session request. All policy (quotas,
// retry, chaos) arrives from the server's config.
type runner struct {
	sup   supervisor.Options
	chaos func(op string) vm.Tracer // test-only fault injection, nil in production
	// pb is the store-resolved pinball of a digest-named request, shared
	// read-only with every other session on the digest; nil when the
	// request names a pinball path.
	pb *pinball.Pinball
}

// chaosTracer returns the injected observer for ops that replay, nil
// normally.
func (r *runner) chaosTracer(op string) vm.Tracer {
	if r.chaos == nil {
		return nil
	}
	return r.chaos(op)
}

// loadProgram compiles the request's program: a server-local source file
// or a registered workload, exactly one of which must be named.
func loadProgram(req *Request) (*drdebug.Program, error) {
	switch {
	case req.File != "" && req.Workload != "":
		return nil, badRequest("file and workload are mutually exclusive")
	case req.File != "":
		prog, err := drdebug.CompileFile(req.File)
		if err != nil {
			return nil, badRequest("compile %s: %v", req.File, err)
		}
		return prog, nil
	case req.Workload != "":
		w, err := drdebug.WorkloadByName(req.Workload)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		prog, err := w.Program()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", req.Workload, err)
		}
		return prog, nil
	}
	return nil, badRequest("need file or workload")
}

// loadSession opens a session on pb when it is set (a digest-named
// request's resolved pinball), else on the pinball file at path
// (salvaged per the request), reporting whether salvage ran.
func loadSession(prog *drdebug.Program, pb *pinball.Pinball, path string, salvage bool, limits vm.Limits, sup supervisor.Options) (*core.Session, bool, error) {
	var sess *core.Session
	var salvaged bool
	switch {
	case pb != nil:
		if pb.ProgramName != prog.Name {
			return nil, false, fmt.Errorf("core: pinball was recorded from %q, not %q", pb.ProgramName, prog.Name)
		}
		sess = core.Open(prog, pb)
	case path == "":
		return nil, false, badRequest("need pinball")
	case salvage:
		s, rep, err := core.LoadSessionSalvage(prog, path)
		if err != nil {
			return nil, false, err
		}
		sess, salvaged = s, rep != nil && !rep.Intact
	default:
		s, err := core.LoadSession(prog, path)
		if err != nil {
			return nil, false, err
		}
		sess = s
	}
	sess.SetLimits(limits)
	sess.SetSupervisor(sup)
	return sess, salvaged, nil
}

// run executes one admitted session request under the given limits.
func (r *runner) run(req *Request, limits vm.Limits) (*sessionResult, error) {
	switch req.Op {
	case OpRecord:
		return r.record(req, limits)
	case OpReplay:
		return r.replay(req, limits)
	case OpSlice:
		return r.slice(req, limits)
	case OpDualSlice:
		return r.dualSlice(req, limits)
	case OpSliceShard:
		return r.sliceShard(req, limits)
	}
	return nil, badRequest("unknown op %q", req.Op)
}

func (r *runner) record(req *Request, limits vm.Limits) (*sessionResult, error) {
	if req.Out == "" {
		return nil, badRequest("record needs out")
	}
	prog, err := loadProgram(req)
	if err != nil {
		return nil, err
	}
	cfg := drdebug.LogConfig{
		Seed:        req.Seed,
		Input:       req.Input,
		MeanQuantum: req.MeanQuantum,
		MaxSteps:    limits.Steps,
	}
	pb, rep, err := supervisor.Record(prog, cfg, drdebug.RegionSpec{}, r.sup)
	if err != nil {
		return &sessionResult{report: rep}, err
	}
	if err := pb.Save(req.Out); err != nil {
		return &sessionResult{report: rep}, err
	}
	return &sessionResult{
		result: encode(RecordResult{
			Pinball:      req.Out,
			RegionInstrs: pb.RegionInstrs,
			Checkpoints:  len(pb.Checkpoints),
		}),
		report: rep,
	}, nil
}

func (r *runner) replay(req *Request, limits vm.Limits) (*sessionResult, error) {
	prog, err := loadProgram(req)
	if err != nil {
		return nil, err
	}
	sess, salvaged, err := loadSession(prog, r.pb, req.Pinball, req.Salvage, limits, r.sup)
	if err != nil {
		return nil, err
	}
	res, err := sess.ReplaySupervised(r.chaosTracer(OpReplay))
	var report *supervisor.Report
	if res != nil {
		report = res.Report
	}
	if err != nil {
		return &sessionResult{report: report}, err
	}
	out := &sessionResult{report: report}
	payload := ReplayResult{Degraded: res.Degraded, RecoveredStep: res.RecoveredStep}
	if res.Replay != nil {
		payload.Executed, payload.Checked = res.Replay.Executed, res.Replay.Checked
	}
	if gr := sess.GapReport(); gr != nil {
		payload.BridgedWindows = gr.Windows
		payload.BridgedInstrs = gr.GapInstrs
		payload.EstimatedWindows = len(gr.Estimated)
	}
	out.result = encode(payload)
	switch {
	case payload.EstimatedWindows > 0:
		out.annotation = CodeEstimated
	case res.Degraded:
		out.annotation = CodeDegraded
	case salvaged:
		out.annotation = CodeSalvaged
	}
	return out, nil
}

// slice answers a whole slice query: one query run from the criterion
// to the start of the trace.
func (r *runner) slice(req *Request, limits vm.Limits) (*sessionResult, error) {
	out, sr, err := r.query(req, limits, nil, 0)
	if err == nil {
		out.result = encode(sr.SliceResult())
	}
	return out, err
}

// sliceShard advances one window range of a distributed slice query
// (see slice.SliceShard): an empty State starts a fresh query at the
// request's criterion, otherwise the carried state resumes.
func (r *runner) sliceShard(req *Request, limits vm.Limits) (*sessionResult, error) {
	if req.Proto < ProtoV2 {
		return nil, badRequest("slice_shard requires proto >= %d", ProtoV2)
	}
	var st *slice.QueryState
	if len(req.State) > 0 {
		st = &slice.QueryState{}
		if err := json.Unmarshal(req.State, st); err != nil {
			return nil, badRequest("bad shard state: %v", err)
		}
	}
	out, sr, err := r.query(req, limits, st, max(req.ShardWindows, 1))
	if err == nil {
		out.result = encode(sr)
	}
	return out, err
}

// query is the daemon's one slice path. It runs a slice query on the
// session's column engine from st (nil: a fresh query at the request's
// criterion) for the given number of checkpoint windows, or to the
// start of the trace when windows is 0, and answers the successor
// state — marshalled only for a shard hop — plus, once the query is
// done, its summary and member-level provenance. A whole slice and the
// last hop of a fleet chain so answer from the same code. The engine
// comes from the shared LRU keyed on pinball content, so every request
// on one recording reuses its hot engine.
func (r *runner) query(req *Request, limits vm.Limits, st *slice.QueryState, windows int) (*sessionResult, ShardResult, error) {
	var payload ShardResult
	prog, err := loadProgram(req)
	if err != nil {
		return nil, payload, err
	}
	sess, salvaged, err := loadSession(prog, r.pb, req.Pinball, req.Salvage, limits, r.sup)
	if err != nil {
		return nil, payload, err
	}
	sess.SetParallelWorkers(req.Workers)

	// Criterion resolution, trace, engine and sweep run as one
	// supervised phase: a panicking analysis pass or a hung trace
	// collection surfaces as a typed failure, and transient failures
	// retry under the server's backoff policy.
	var rejected error
	reject := func(err error) error {
		if errors.Is(err, core.ErrBadCriterion) || errors.Is(err, slice.ErrBadState) {
			// The sender's fault: end the phase without a retry.
			rejected = err
			return nil
		}
		return err
	}
	rep, err := supervisor.Run(supervisor.PhaseSlice, r.sup, func() error {
		var crit tracer.Ref
		var bound int
		if st != nil {
			crit, bound = st.Crit, st.Bound
		} else {
			var serr error
			if crit, serr = sess.ResolveCriterion(req.Var, req.Tid, int32(req.Line), req.Nth); serr != nil {
				return reject(serr)
			}
		}
		eng, serr := sess.ParallelSlicer()
		if serr != nil {
			return serr
		}
		lo := 0
		if windows > 0 {
			if st == nil {
				if bound, serr = eng.StartBound(crit); serr != nil {
					return serr
				}
			}
			lo = eng.NextShardLo(bound, windows)
		}
		next, serr := eng.SliceShard(crit, st, lo)
		if serr != nil {
			return reject(serr)
		}
		payload = ShardResult{Done: next.Done, Bound: next.Bound}
		if windows > 0 {
			if payload.State, serr = json.Marshal(next); serr != nil {
				return serr
			}
		}
		if next.Done {
			sum, serr := eng.SummarizeState(next)
			if serr != nil {
				return serr
			}
			payload.Members, payload.TraceLen = sum.Members, sum.TraceLen
			payload.Deps, payload.Pruned = sum.Deps, sum.PrunedBypasses
			payload.Digest = sum.Digest
			payload.Prov = eng.SummarizeProvenance(next)
		}
		return nil
	})
	out := &sessionResult{report: rep}
	if err != nil {
		return out, payload, err
	}
	if rejected != nil {
		return out, payload, badRequest("%v", rejected)
	}
	switch {
	case payload.Prov != nil && payload.Prov.Degraded():
		out.annotation = CodeEstimated
	case salvaged:
		out.annotation = CodeSalvaged
	}
	return out, payload, nil
}

func (r *runner) dualSlice(req *Request, limits vm.Limits) (*sessionResult, error) {
	if req.Var == "" {
		return nil, badRequest("dualslice needs var")
	}
	if req.PassingPinball == "" {
		return nil, badRequest("dualslice needs passing_pinball")
	}
	prog, err := loadProgram(req)
	if err != nil {
		return nil, err
	}
	failing, salvaged, err := loadSession(prog, r.pb, req.Pinball, req.Salvage, limits, r.sup)
	if err != nil {
		return nil, err
	}
	passing, _, err := loadSession(prog, nil, req.PassingPinball, req.Salvage, limits, r.sup)
	if err != nil {
		return nil, err
	}
	failing.SetParallelWorkers(req.Workers)
	passing.SetParallelWorkers(req.Workers)

	var payload DualSliceResult
	rep, err := supervisor.Run(supervisor.PhaseSlice, r.sup, func() error {
		d, derr := core.DualSlice(failing, passing, req.Var)
		if derr != nil {
			return derr
		}
		payload = DualSliceResult{
			OnlyFailing: len(d.OnlyFailing),
			OnlyPassing: len(d.OnlyPassing),
			Common:      len(d.Common),
		}
		return nil
	})
	out := &sessionResult{report: rep}
	if err != nil {
		return out, err
	}
	out.result = encode(payload)
	if salvaged {
		out.annotation = CodeSalvaged
	}
	return out, nil
}

// breakerKey identifies the pinball content a session op runs against,
// "" when the op touches no existing pinball (record).
func breakerKey(req *Request) string {
	switch req.Op {
	case OpReplay, OpSlice, OpDualSlice, OpSliceShard:
		if req.Digest == "" && req.Pinball == "" {
			return ""
		}
		return RouteKey(req)
	}
	return ""
}
