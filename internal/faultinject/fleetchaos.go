package faultinject

import "sync/atomic"

// Fleet chaos: the failure modes a coordinator/worker fleet must
// survive are injected at two seams — the coordinator's dialer (network
// partitions) and the worker agent's heartbeat gate (a worker that is
// alive and computing but looks dead). Both are plain atomic gates with
// no dependency on the fleet packages, so either side can wire them
// into its injection hooks.

// Partition simulates a network partition toward one peer: while cut,
// the wrapped dialer must refuse. It is safe for concurrent use and can
// be cut and healed repeatedly.
type Partition struct {
	cut atomic.Bool
}

// Cut severs the link; Heal restores it.
func (p *Partition) Cut()  { p.cut.Store(true) }
func (p *Partition) Heal() { p.cut.Store(false) }

// Allow reports whether a dial may proceed.
func (p *Partition) Allow() bool { return !p.cut.Load() }

// HeartbeatDropper suppresses a worker's heartbeats — the "alive but
// looks dead" fault that must trigger dead-worker re-dispatch without
// losing the worker's in-flight results. It has the contract of the
// fleet agent's BeatHook: Allow is called once per beat.
type HeartbeatDropper struct {
	forever atomic.Bool
}

// Forever suppresses every heartbeat from now on (a silent worker);
// Resume undoes it.
func (d *HeartbeatDropper) Forever() { d.forever.Store(true) }
func (d *HeartbeatDropper) Resume()  { d.forever.Store(false) }

// Allow reports whether this beat may be sent.
func (d *HeartbeatDropper) Allow() bool { return !d.forever.Load() }
