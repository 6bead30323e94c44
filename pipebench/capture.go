package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/store"
)

// captureReopen is one user capturing regions into the content-addressed
// store and reopening stored ones: a seeded mix of 25% captures and 75%
// reopens. A capture records a region, encodes it and puts it; a reopen
// gets a stored digest, decodes it and replays it untraced with
// checkpoint validation. A third of the captures repeat an earlier
// capture's program and seed, so they take the store's dedup path. The
// slicer is never called.
type captureReopen struct {
	st      *store.Store
	kernels []kernel
	main    int64
	stored  []storedCapture

	captures, existed int
	putBytes, shared  int64
	replays, checked  int
	bad               []string
	probeIn           probeInput
}

var capturePrograms = []string{"canneal", "mgrid", "swaptions"}

// storedCapture is one distinct capture in the store.
type storedCapture struct {
	kernel      int
	lc          pinplay.LogConfig
	digest      string
	id          string // the recorded pinball's ID
	checkpoints int
}

// captureDeck is one stretch of the op mix: a fresh capture, a repeated
// capture, another fresh capture, and nine reopens, shuffled.
const (
	deckFresh = iota
	deckRepeat
	deckReopen
)

var captureDeck = []int{deckFresh, deckRepeat, deckFresh, deckReopen, deckReopen, deckReopen,
	deckReopen, deckReopen, deckReopen, deckReopen, deckReopen, deckReopen}

func (w *captureReopen) clients() int { return 1 }

func (w *captureReopen) setup(env *runEnv) error {
	ks, err := compileKernels(capturePrograms, openEnded)
	if err != nil {
		return err
	}
	root, err := os.MkdirTemp(env.dir, "store-")
	if err != nil {
		return err
	}
	st, err := store.Open(root)
	if err != nil {
		return err
	}
	*w = captureReopen{st: st, kernels: ks, main: env.cfg.size.captureMain}
	// Seed the store with one capture per program, so reopens have
	// content from the first operation on.
	seeder := &client{rng: env.rng, pick: env.rng}
	for i := range ks {
		if err := w.capture(seeder, i, schedSeed(env.rng)); err != nil {
			return err
		}
	}
	w.probeIn = probeInput{prog: ks[0].prog, lc: w.stored[0].lc, spec: pinplay.RegionSpec{LengthMain: w.main}}
	w.captures, w.existed, w.putBytes, w.shared, w.bad = 0, 0, 0, 0, nil
	return nil
}

func (w *captureReopen) op(c *client) error {
	switch captureDeck[c.draw(0, len(captureDeck))] {
	case deckFresh:
		return w.capture(c, c.rng.IntN(len(w.kernels)), schedSeed(c.rng))
	case deckRepeat:
		s := w.stored[c.rng.IntN(len(w.stored))]
		return w.capture(c, s.kernel, s.lc.Seed)
	}
	return w.reopen(c, w.stored[c.rng.IntN(len(w.stored))])
}

func (w *captureReopen) capture(c *client, k int, seed int64) error {
	prog := w.kernels[k].prog
	lc := pinplay.LogConfig{Seed: seed, Input: w.kernels[k].input, RandSeed: seed}
	c.start("capture")
	pb, err := call(c, "pinplay.record", func() (*pinball.Pinball, error) {
		return pinplay.Log(prog, lc, pinplay.RegionSpec{LengthMain: w.main})
	})
	if err != nil {
		return err
	}
	data, err := call(c, "pinball.encode", pb.EncodeBytes)
	if err != nil {
		return err
	}
	res, err := call(c, "store.put", func() (*store.PutResult, error) {
		return w.st.Put(data, store.PutMeta{Program: prog.Name, Kind: string(pb.Kind)})
	})
	if err != nil {
		return err
	}
	c.stop()

	w.captures++
	w.putBytes += res.Size
	w.shared += res.SharedBytes
	if res.Existed {
		w.existed++
	}
	var bad []string
	if got := store.Digest(data); res.Digest != got {
		bad = append(bad, fmt.Sprintf("put returned digest %s for bytes hashing to %s", res.Digest, got))
	}
	known := -1
	for i, s := range w.stored {
		if s.digest == res.Digest {
			known = i
		}
	}
	switch {
	case known >= 0 && w.stored[known].id != pb.ID():
		bad = append(bad, fmt.Sprintf("same digest as seed %d, different pinball", w.stored[known].lc.Seed))
	case known >= 0 && !res.Existed:
		bad = append(bad, "repeated content not reported as existing")
	case known < 0 && res.Existed:
		bad = append(bad, "new content reported as existing")
	case known < 0:
		w.stored = append(w.stored, storedCapture{kernel: k, lc: lc, digest: res.Digest, id: pb.ID(), checkpoints: len(pb.Checkpoints)})
	}
	w.flag(fmt.Sprintf("capture %s seed %d", prog.Name, seed), bad)
	return nil
}

// flag records one operation's failed checks as one mismatch, so an
// operation counts once in "failed".
func (w *captureReopen) flag(op string, bad []string) {
	if len(bad) > 0 {
		w.bad = append(w.bad, op+": "+strings.Join(bad, "; "))
	}
}

func (w *captureReopen) reopen(c *client, s storedCapture) error {
	prog := w.kernels[s.kernel].prog
	c.start("reopen")
	data, err := call(c, "store.get", func() ([]byte, error) { return w.st.Get(s.digest) })
	if err != nil {
		return err
	}
	pb, err := call(c, "pinball.decode", func() (*pinball.Pinball, error) { return pinball.Decode(data) })
	if err != nil {
		return err
	}
	rep, err := call(c, "pinplay.replay", func() (*pinplay.ReplayReport, error) {
		_, rep, err := pinplay.ReplayWith(prog, pb, pinplay.ReplayOptions{})
		return rep, err
	})
	if err != nil {
		return err
	}
	c.stop()

	w.replays++
	w.checked += rep.Checked
	var bad []string
	if got := store.Digest(data); got != s.digest {
		bad = append(bad, fmt.Sprintf("store returned bytes hashing to %s", got))
	}
	if id := pb.ID(); id != s.id {
		bad = append(bad, fmt.Sprintf("decoded pinball %s, recorded %s", id, s.id))
	}
	if len(rep.Divergences) > 0 || rep.Checked != s.checkpoints {
		bad = append(bad, fmt.Sprintf("replay checked %d of %d checkpoints, %d divergences",
			rep.Checked, s.checkpoints, len(rep.Divergences)))
	}
	w.flag("reopen "+s.digest, bad)
	return nil
}

// check reports what the operations found: every get re-hashed to its
// digest, every decoded pinball kept its ID, every replay was
// divergence-clean with every checkpoint checked, and the dedup path
// answered exactly for repeated content.
func (w *captureReopen) check() ([]string, error) { return w.bad, nil }

func (w *captureReopen) probe() probeInput { return w.probeIn }

func (w *captureReopen) layerCounters(m map[string]float64) {
	m["store.shared_bytes_ratio"] = ratio(w.shared, w.putBytes)
	m["store.existed_ratio"] = ratio(int64(w.existed), int64(w.captures))
	m["pinplay.checkpoints_per_replay"] = ratio(int64(w.checked), int64(w.replays))
}

func (w *captureReopen) pid() string { return "self" }

func (w *captureReopen) close() error { return nil }
