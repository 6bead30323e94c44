package vm

import "repro/internal/isa"

// get reads a register, with RZ hard-wired to zero.
func get(t *Thread, r isa.Reg) int64 {
	if r == isa.RZ {
		return 0
	}
	return t.Regs[r]
}

// set writes a register, discarding writes to RZ.
func set(t *Thread, r isa.Reg, v int64) {
	if r != isa.RZ {
		t.Regs[r] = v
	}
}

// step executes one instruction of t. It returns true if the thread
// blocked instead of executing (lock unavailable, join target alive); in
// that case no instruction was executed and no event emitted. Failures
// stop the machine via m.fail.
func (m *Machine) step(t *Thread) (blocked bool) {
	if t.PC < 0 || t.PC >= int64(len(m.Prog.Code)) {
		m.fail(t, t.Count, "pc %d outside code", t.PC)
		return false
	}
	in := &m.Prog.Code[t.PC]
	idx := t.Count

	// Event skeleton, written field by field into the reused event (a
	// composite-literal assignment through the pointer would zero and
	// copy the whole struct every step). The opcode cases fill in the
	// rest; every field they may set is reset here, except NextPC, which
	// each delivering path sets.
	ev := &m.ev
	if m.tracing {
		ev.Tid, ev.PC, ev.Idx, ev.Instr = t.ID, t.PC, idx, *in
		ev.EffAddr, ev.MemIsWrite, ev.MemAlsoRead, ev.MemVal = -1, false, false, 0
		ev.Taken, ev.Aux = false, 0
	}

	nextPC := t.PC + 1

	switch in.Op {
	case isa.NOP:

	case isa.MOVI:
		set(t, in.Rd, in.Imm)

	case isa.MOV:
		set(t, in.Rd, get(t, in.Rs1))

	case isa.LOAD:
		addr := get(t, in.Rs1) + in.Imm
		if addr < 0 {
			m.fail(t, idx, "load from negative address %d", addr)
			return false
		}
		v := m.Mem.Read(addr)
		set(t, in.Rd, v)
		if m.tracing {
			ev.EffAddr = addr
			ev.MemVal = v
			m.trackAccess(t.ID, idx, addr, false)
		}

	case isa.STORE:
		addr := get(t, in.Rs1) + in.Imm
		if addr < 0 {
			m.fail(t, idx, "store to negative address %d", addr)
			return false
		}
		v := get(t, in.Rs2)
		m.Mem.Write(addr, v)
		if m.tracing {
			ev.EffAddr = addr
			ev.MemIsWrite = true
			ev.MemVal = v
			m.trackAccess(t.ID, idx, addr, true)
		}

	case isa.PUSH:
		sp := t.Regs[isa.SP] - 1
		if sp < StackBase+int64(t.ID)*StackWords {
			m.fail(t, idx, "stack overflow")
			return false
		}
		v := get(t, in.Rs1)
		m.Mem.Write(sp, v)
		t.Regs[isa.SP] = sp
		if m.tracing {
			ev.EffAddr = sp
			ev.MemIsWrite = true
			ev.MemVal = v
		}

	case isa.POP:
		sp := t.Regs[isa.SP]
		v := m.Mem.Read(sp)
		set(t, in.Rd, v)
		t.Regs[isa.SP] = sp + 1
		if m.tracing {
			ev.EffAddr = sp
			ev.MemVal = v
		}

	case isa.ADD:
		set(t, in.Rd, get(t, in.Rs1)+get(t, in.Rs2))
	case isa.SUB:
		set(t, in.Rd, get(t, in.Rs1)-get(t, in.Rs2))
	case isa.MUL:
		set(t, in.Rd, get(t, in.Rs1)*get(t, in.Rs2))
	case isa.DIV:
		d := get(t, in.Rs2)
		if d == 0 {
			m.fail(t, idx, "division by zero")
			return false
		}
		set(t, in.Rd, get(t, in.Rs1)/d)
	case isa.MOD:
		d := get(t, in.Rs2)
		if d == 0 {
			m.fail(t, idx, "modulo by zero")
			return false
		}
		set(t, in.Rd, get(t, in.Rs1)%d)
	case isa.AND:
		set(t, in.Rd, get(t, in.Rs1)&get(t, in.Rs2))
	case isa.OR:
		set(t, in.Rd, get(t, in.Rs1)|get(t, in.Rs2))
	case isa.XOR:
		set(t, in.Rd, get(t, in.Rs1)^get(t, in.Rs2))
	case isa.SHL:
		set(t, in.Rd, get(t, in.Rs1)<<uint64(get(t, in.Rs2)&63))
	case isa.SHR:
		set(t, in.Rd, int64(uint64(get(t, in.Rs1))>>uint64(get(t, in.Rs2)&63)))
	case isa.ADDI:
		set(t, in.Rd, get(t, in.Rs1)+in.Imm)
	case isa.MULI:
		set(t, in.Rd, get(t, in.Rs1)*in.Imm)

	case isa.CMPEQ:
		set(t, in.Rd, b2i(get(t, in.Rs1) == get(t, in.Rs2)))
	case isa.CMPNE:
		set(t, in.Rd, b2i(get(t, in.Rs1) != get(t, in.Rs2)))
	case isa.CMPLT:
		set(t, in.Rd, b2i(get(t, in.Rs1) < get(t, in.Rs2)))
	case isa.CMPLE:
		set(t, in.Rd, b2i(get(t, in.Rs1) <= get(t, in.Rs2)))

	case isa.BR:
		if get(t, in.Rs1) != 0 {
			nextPC = in.Imm
			if m.tracing {
				ev.Taken = true
			}
		}
	case isa.BRZ:
		if get(t, in.Rs1) == 0 {
			nextPC = in.Imm
			if m.tracing {
				ev.Taken = true
			}
		}
	case isa.JMP:
		nextPC = in.Imm
	case isa.JMPI:
		nextPC = get(t, in.Rs1)
		if nextPC < 0 || nextPC >= int64(len(m.Prog.Code)) {
			m.fail(t, idx, "indirect jump to %d outside code", nextPC)
			return false
		}

	case isa.CALL, isa.CALLI:
		target := in.Imm
		if in.Op == isa.CALLI {
			target = get(t, in.Rs1)
			if target < 0 || target >= int64(len(m.Prog.Code)) {
				m.fail(t, idx, "indirect call to %d outside code", target)
				return false
			}
		}
		sp := t.Regs[isa.SP] - 1
		if sp < StackBase+int64(t.ID)*StackWords {
			m.fail(t, idx, "stack overflow")
			return false
		}
		m.Mem.Write(sp, t.PC+1)
		t.Regs[isa.SP] = sp
		nextPC = target
		if m.tracing {
			ev.EffAddr = sp
			ev.MemIsWrite = true
			ev.MemVal = t.PC + 1
		}

	case isa.RET:
		sp := t.Regs[isa.SP]
		ra := m.Mem.Read(sp)
		t.Regs[isa.SP] = sp + 1
		if m.tracing {
			ev.EffAddr = sp
			ev.MemVal = ra
		}
		if ra == exitSentinel {
			// Thread exit: the RET executes, then the thread is done.
			t.Count++
			m.steps++
			if m.tracing {
				ev.NextPC = -1
				m.tracer.OnInstr(ev)
			}
			m.exitThread(t)
			return false
		}
		if ra < 0 || ra >= int64(len(m.Prog.Code)) {
			m.fail(t, idx, "return to bad address %d", ra)
			return false
		}
		nextPC = ra

	case isa.SPAWN:
		if len(m.Threads) >= MaxThreads {
			m.fail(t, idx, "too many threads")
			return false
		}
		nt := m.newThread(in.Imm, get(t, in.Rs1))
		set(t, in.Rd, int64(nt.ID))
		if m.tracing {
			ev.Aux = int64(nt.ID)
		}
		m.needSched = true

	case isa.JOIN:
		target := get(t, in.Rs1)
		if target < 0 || target >= int64(len(m.Threads)) {
			m.fail(t, idx, "join of invalid thread %d", target)
			return false
		}
		if m.Threads[target].Status != Exited {
			t.Status = BlockedJoin
			t.WaitTid = int(target)
			m.joinWaiters[int(target)] = append(m.joinWaiters[int(target)], t.ID)
			return true
		}
		if m.tracing {
			ev.Aux = target
		}

	case isa.LOCK:
		addr := get(t, in.Rs1)
		if addr < 0 {
			m.fail(t, idx, "lock at negative address %d", addr)
			return false
		}
		held := m.Mem.Read(addr)
		if held != 0 {
			t.Status = BlockedLock
			t.WaitAddr = addr
			m.lockWaiters[addr] = append(m.lockWaiters[addr], t.ID)
			return true
		}
		m.Mem.Write(addr, int64(t.ID)+1)
		if m.tracing {
			ev.EffAddr = addr
			ev.MemIsWrite = true
			ev.MemAlsoRead = true
			ev.MemVal = int64(t.ID) + 1
			m.trackAccess(t.ID, idx, addr, true)
		}

	case isa.UNLOCK:
		addr := get(t, in.Rs1)
		if addr < 0 {
			m.fail(t, idx, "unlock at negative address %d", addr)
			return false
		}
		if m.Mem.Read(addr) != int64(t.ID)+1 {
			m.fail(t, idx, "unlock of lock not held (cell %d)", addr)
			return false
		}
		m.Mem.Write(addr, 0)
		m.wakeLockWaiters(addr)
		if m.tracing {
			ev.EffAddr = addr
			ev.MemIsWrite = true
			ev.MemAlsoRead = true
			ev.MemVal = 0
			m.trackAccess(t.ID, idx, addr, true)
		}

	case isa.WAIT:
		cvAddr := get(t, in.Rs1)
		mAddr := get(t, in.Rs2)
		if cvAddr < 0 || mAddr < 0 {
			m.fail(t, idx, "wait with negative address")
			return false
		}
		if m.Mem.Read(mAddr) != int64(t.ID)+1 {
			m.fail(t, idx, "wait without holding the mutex (cell %d)", mAddr)
			return false
		}
		// Atomically release the mutex and join the condvar's FIFO; the
		// compiler places a LOCK on the same mutex right after this
		// instruction, so wakeup reacquires before proceeding.
		m.Mem.Write(mAddr, 0)
		m.wakeLockWaiters(mAddr)
		t.PC = t.PC + 1
		t.Count++
		m.steps++
		if m.tracing {
			ev.EffAddr = mAddr
			ev.MemIsWrite = true
			ev.MemAlsoRead = true
			ev.MemVal = 0
			ev.NextPC = t.PC
			ev.Aux = cvAddr
			m.trackAccess(t.ID, idx, mAddr, true)
			m.tracer.OnInstr(ev)
		}
		m.waitTicket++
		t.WaitTicket = m.waitTicket
		t.Status = BlockedCond
		t.WaitAddr = cvAddr
		m.condWaiters[cvAddr] = append(m.condWaiters[cvAddr], t.ID)
		m.needSched = true
		return false

	case isa.SIGNAL:
		cvAddr := get(t, in.Rs1)
		if cvAddr < 0 {
			m.fail(t, idx, "signal at negative address %d", cvAddr)
			return false
		}
		woken := int64(-1)
		if q := m.condWaiters[cvAddr]; len(q) > 0 {
			w := q[0]
			if len(q) == 1 {
				delete(m.condWaiters, cvAddr)
			} else {
				m.condWaiters[cvAddr] = q[1:]
			}
			m.Threads[w].Status = Runnable
			woken = int64(w)
		}
		if m.tracing {
			ev.Aux = woken
			if woken >= 0 {
				// Causality: the signal happens before everything the
				// woken thread does next.
				m.tracer.OnOrderEdge(OrderEdge{
					FromTid: t.ID, FromIdx: idx,
					ToTid: int(woken), ToIdx: m.Threads[woken].Count,
					Addr: cvAddr,
				})
			}
		}

	case isa.SYSCALL:
		ret := m.syscall(t, in.Imm, get(t, in.Rs1))
		if m.stopped != StopNone {
			return false
		}
		set(t, in.Rd, ret)
		if m.tracing {
			m.tracer.OnSyscall(SyscallRecord{Tid: t.ID, Num: in.Imm, Arg: get(t, in.Rs1), Ret: ret})
		}

	case isa.ASSERT:
		if get(t, in.Rs1) == 0 {
			// The assert executes (so the slice criterion exists in the
			// trace), then the machine stops with the failure.
			t.Count++
			m.steps++
			if m.tracing {
				ev.NextPC = t.PC + 1
				m.tracer.OnInstr(ev)
			}
			m.fail(t, idx, "assertion failure at %s", m.Prog.SourceOf(t.PC))
			return false
		}

	case isa.HALT:
		t.Count++
		m.steps++
		if m.tracing {
			ev.NextPC = -1
			m.tracer.OnInstr(ev)
		}
		m.stopped = StopHalt
		return false

	default:
		m.fail(t, idx, "invalid opcode %d", in.Op)
		return false
	}

	t.PC = nextPC
	t.Count++
	m.steps++
	if m.tracing {
		ev.NextPC = nextPC
		m.tracer.OnInstr(ev)
	}
	return false
}

// syscall executes one system call for t. Deterministic calls are handled
// here; nondeterministic ones are delegated to the configured environment.
func (m *Machine) syscall(t *Thread, num, arg int64) int64 {
	switch num {
	case isa.SysWrite:
		m.output = append(m.output, arg)
		return arg
	case isa.SysAlloc:
		if arg < 0 {
			m.fail(t, t.Count, "alloc of negative size %d", arg)
			return 0
		}
		base := m.heapNext
		m.heapNext += arg
		if m.heapNext > StackBase {
			m.fail(t, t.Count, "heap exhausted")
			return 0
		}
		return base
	case isa.SysThreadID:
		return int64(t.ID)
	case isa.SysYield:
		m.needSched = true
		return 0
	case isa.SysRead, isa.SysTime, isa.SysRand:
		if m.env == nil {
			return 0
		}
		return m.env.Syscall(t.ID, num, arg)
	}
	m.fail(t, t.Count, "bad syscall %d", num)
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
