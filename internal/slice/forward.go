// Package slice implements DrDebug's dynamic slicer for multi-threaded
// programs (paper Sections 3-5): precise dynamic control dependences via
// the Xin-Zhang online algorithm over CFGs refined with dynamically
// observed indirect-jump targets (§5.1), data dependences recovered by a
// backward traversal of the global trace with Limited-Preprocessing block
// skipping (§3), spurious save/restore dependence pruning (§5.2), and the
// code-exclusion region builder that feeds PinPlay's relogger (§4).
package slice

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/tracer"
)

// noParent marks an entry with no control parent.
var noParent = tracer.Ref{Tid: -1, Pos: -1}

// bypassRole classifies a verified save/restore instruction instance.
type bypassRole uint8

const (
	bypassSave bypassRole = iota + 1
	bypassRestore
)

// bypassInfo describes a verified save or restore event: reg is the saved
// register's location, slot the stack cell it was saved into.
type bypassInfo struct {
	role bypassRole
	reg  tracer.Loc
	slot tracer.Loc
}

// forward holds the results of the forward analysis pass over the trace:
// per-entry dynamic control parents and the verified save/restore pairs.
type forward struct {
	// parent[tid][pos] is the control parent of that entry. For entries
	// guarded by a branch it is the branch; for unguarded entries inside
	// a call it is the CALL (making callee code transitively dependent
	// on the predicate guarding the call, as in paper Figure 8); for a
	// spawned thread's root it is the SPAWN event.
	parent map[int][]tracer.Ref

	bypass map[tracer.Ref]bypassInfo

	// pairs counts dynamically verified save/restore pairs.
	pairs int64
	// cfgRefinements counts newly observed indirect-jump targets.
	cfgRefinements int64
}

// cdEntry is one entry of the per-thread control-dependence stack: either
// an open branch region or a call-frame marker.
type cdEntry struct {
	isFrame bool
	ref     tracer.Ref
	ipdPC   int64 // region close pc; -1 closes only at frame pop
	frameID int64
}

// frameSave records a candidate save awaiting its restore in a frame.
type frameSave struct {
	frameID int64
	reg     isa.Reg
	addr    int64
	val     int64
	ref     tracer.Ref
}

// runForward performs the forward pass: (i) observe every indirect-jump
// target to refine the CFGs (§5.1); (ii) replay the Xin-Zhang region
// stack per thread to attach a dynamic control parent to every entry;
// (iii) dynamically verify save/restore candidate pairs (§5.2).
func runForward(prog *isa.Program, tr *tracer.Trace, an *cfg.Analyzer, cand *srCandidates, refine bool) (*forward, error) {
	// Phase 1: CFG refinement. All dynamic indirect-jump (and indirect
	// call) targets are added before post-dominators are queried, so the
	// control-dependence pass below runs on the fully refined CFG.
	var refs int64
	if refine {
		for _, local := range tr.Locals {
			refs += observeIndirects(an, local)
		}
	}

	f := &forward{
		parent:         make(map[int][]tracer.Ref, len(tr.Locals)),
		bypass:         make(map[tracer.Ref]bypassInfo),
		cfgRefinements: refs,
	}

	for tid, local := range tr.Locals {
		res, err := forwardThread(tr, an, cand, tid, local, nil)
		if err != nil {
			return nil, err
		}
		f.parent[tid] = res.parents
		for _, b := range res.bypass {
			f.bypass[b.ref] = b.info
		}
		f.pairs += res.pairs
	}
	return f, nil
}

// observeIndirects feeds one thread's dynamically taken indirect-jump
// targets into the analyzer, returning how many were new.
func observeIndirects(an *cfg.Analyzer, local []tracer.Entry) int64 {
	var refs int64
	for i := range local {
		e := &local[i]
		if e.Instr.Op == isa.JMPI && e.NextPC >= 0 {
			if an.ObserveIndirect(e.PC, e.NextPC) {
				refs++
			}
		}
	}
	return refs
}

// threadForward is one thread's forward-pass result.
type threadForward struct {
	// parents[pos] is the control parent of the thread's entry at pos;
	// nil when the pass wrote the parents into a global column instead.
	parents []tracer.Ref
	// bypass lists the verified save/restore entries in the order their
	// pairs were verified.
	bypass []bypassEntry
	pairs  int64
	// ext is the location-space extents of the thread's entries.
	ext tracer.Extents
}

// bypassEntry is one verified save or restore instance.
type bypassEntry struct {
	ref  tracer.Ref
	info bypassInfo
}

// forwardThread runs the Xin-Zhang control-dependence stack and the
// save/restore verifier over one thread's local trace. Threads are
// independent — the parallel engine runs one forwardThread per worker —
// and the analyzer must already hold every indirect target (phase 1)
// so the refined CFGs are complete when post-dominators are queried.
//
// With a nil parentCol the parents come back per local position in
// res.parents. Otherwise BuildGlobal must have run and each entry's
// parent is written to parentCol at the entry's global position, as the
// parent's global position (-1 for none); threads own disjoint
// positions, so concurrent passes may share one column.
func forwardThread(tr *tracer.Trace, an *cfg.Analyzer, cand *srCandidates, tid int, local []tracer.Entry, parentCol []int32) (threadForward, error) {
	res := threadForward{ext: tracer.NewExtents()}
	var gpos []int32
	if parentCol == nil {
		res.parents = make([]tracer.Ref, len(local))
	} else if gpos = tr.GlobalPositions(tid); len(gpos) != len(local) {
		return res, fmt.Errorf("slice: thread %d has no complete global trace positions", tid)
	}
	parents := res.parents
	var stack []cdEntry
	var saves []frameSave
	var nextFrameID int64 = 1
	var frameIDs = []int64{0} // current frame id stack (root = 0)

	spawnParent, spawnG := noParent, int32(-1)
	if sp, ok := tr.SpawnEvent[tid]; ok {
		spawnParent = sp
		if g, ok := tr.GlobalPosOf(sp); ok {
			spawnG = int32(g)
		}
	}

	for pos := range local {
		e := &local[pos]
		here := tracer.Ref{Tid: int32(tid), Pos: int32(pos)}
		pc := e.PC

		// Close branch regions whose immediate post-dominator has
		// been reached (same frame only).
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if !top.isFrame && top.ipdPC == pc && top.frameID == frameIDs[len(frameIDs)-1] {
				stack = stack[:len(stack)-1]
				continue
			}
			break
		}

		// Control parent.
		switch {
		case parentCol == nil && len(stack) > 0:
			parents[pos] = stack[len(stack)-1].ref
		case parentCol == nil:
			parents[pos] = spawnParent
		case len(stack) > 0:
			parentCol[gpos[pos]] = gpos[stack[len(stack)-1].ref.Pos]
		default:
			parentCol[gpos[pos]] = spawnG
		}
		res.ext.Observe(e)

		switch {
		case e.Instr.Op == isa.CALL || e.Instr.Op == isa.CALLI:
			stack = append(stack, cdEntry{isFrame: true, ref: here, frameID: frameIDs[len(frameIDs)-1]})
			frameIDs = append(frameIDs, nextFrameID)
			nextFrameID++

		case e.Instr.Op == isa.RET:
			// Pop everything belonging to the returning frame,
			// including the frame marker itself.
			for len(stack) > 0 {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if top.isFrame {
					break
				}
			}
			// Discard unmatched saves of the dead frame.
			fid := frameIDs[len(frameIDs)-1]
			for len(saves) > 0 && saves[len(saves)-1].frameID == fid {
				saves = saves[:len(saves)-1]
			}
			if len(frameIDs) > 1 {
				frameIDs = frameIDs[:len(frameIDs)-1]
			}

		case e.Instr.IsBranch():
			ipd, err := an.IPDPc(pc)
			if err != nil {
				return res, fmt.Errorf("slice: control deps at pc %d: %w", pc, err)
			}
			stack = append(stack, cdEntry{ref: here, ipdPC: ipd, frameID: frameIDs[len(frameIDs)-1]})
		}

		// Save/restore verification.
		if cand != nil {
			fid := frameIDs[len(frameIDs)-1]
			if e.Instr.Op == isa.PUSH && cand.saves[pc] {
				saves = append(saves, frameSave{
					frameID: fid, reg: e.Instr.Rs1, addr: e.EffAddr, val: e.MemVal, ref: here,
				})
			} else if e.Instr.Op == isa.POP && cand.restores[pc] {
				// Match the most recent save of the same frame with
				// the same register, slot and value.
				for i := len(saves) - 1; i >= 0 && saves[i].frameID == fid; i-- {
					s := saves[i]
					if s.reg == e.Instr.Rd && s.addr == e.EffAddr && s.val == e.MemVal {
						reg := tracer.RegLoc(tid, s.reg)
						slot := tracer.MemLoc(s.addr)
						res.bypass = append(res.bypass,
							bypassEntry{s.ref, bypassInfo{role: bypassSave, reg: reg, slot: slot}},
							bypassEntry{here, bypassInfo{role: bypassRestore, reg: reg, slot: slot}})
						res.pairs++
						saves = append(saves[:i], saves[i+1:]...)
						break
					}
				}
			}
		}
	}
	return res, nil
}

// parentOf returns the control parent of ref, or ok=false.
func (f *forward) parentOf(r tracer.Ref) (tracer.Ref, bool) {
	p := f.parent[int(r.Tid)][r.Pos]
	if p.Tid < 0 {
		return noParent, false
	}
	return p, true
}
