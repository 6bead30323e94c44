package sessiond

import (
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// BreakerConfig tunes a circuit breaker.
type BreakerConfig struct {
	// K is the consecutive-failure threshold that opens a key's circuit
	// (default 3; negative disables the breaker).
	K int
	// Cooldown is how long an opened circuit rejects before letting a
	// trial request through (default 30s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.K == 0 {
		c.K = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// breakerEntry is one pinball's failure history.
type breakerEntry struct {
	consecutive int
	openUntil   time.Time
	// Cached failure report served while the circuit is open, so a
	// fast-failed client still learns what is wrong with the pinball.
	lastCode string
	lastErr  string
}

// Breaker is a keyed circuit breaker. Requests against a key that has
// failed K times in a row fail fast with the cached report until the
// cooldown expires; then one (or a raced few) trial requests pass, and a
// single further failure re-opens the circuit for another cooldown,
// while a success closes it.
//
// The server keys it on content digests of the pinball file, not paths:
// replacing a corrupt file with a good one under the same name closes its
// circuit instantly, and copying a corrupt file to a new path does not
// reset its failure history. The fleet coordinator keys a second one on
// worker names, charged by transport failures only.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu      sync.Mutex
	entries map[string]*breakerEntry
}

// NewBreaker builds a breaker; now is its clock (nil for time.Now).
func NewBreaker(cfg BreakerConfig, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{cfg: cfg.withDefaults(), now: now, entries: make(map[string]*breakerEntry)}
}

// pinballContentID keys a pinball file on its store content digest,
// "digest:<hex>" — the same key a request naming those bytes by digest
// gets, so both share one circuit and one rendezvous owner. Unlike
// pinball.Pinball.ID it works on files that do not even load — the
// breaker's most important customers. An unreadable file keys on its
// path (the best identity available).
func pinballContentID(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "path:" + path
	}
	return "digest:" + store.Digest(data)
}

// RouteKey derives a stable routing identity for a request — the key
// the fleet's rendezvous hash places on a worker. Requests naming a
// pinball key on its content digest (the same bytes always land on the
// same worker, so its engine LRU stays hot; renaming or copying the
// file does not move it), record requests key on their output path, and
// anything else on its program source.
func RouteKey(req *Request) string {
	switch {
	case req.Digest != "":
		// Digest-named requests (sessions by digest, store fetch/stat)
		// route on the digest itself: the rendezvous owner of
		// "digest:<d>" is where store_put replicates first, so sessions
		// land where the bytes already are.
		return "digest:" + req.Digest
	case req.Pinball != "":
		return pinballContentID(req.Pinball)
	case req.Out != "":
		return "out:" + req.Out
	default:
		return "prog:" + req.File + ":" + req.Workload
	}
}

// Check reports whether the circuit for id is open; when open it
// returns the cached failure code and message.
func (b *Breaker) Check(id string) (open bool, code, msg string) {
	if b.cfg.K < 0 || id == "" {
		return false, "", ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[id]
	if !ok || b.now().Before(e.openUntil) == false {
		return false, "", ""
	}
	return true, e.lastCode, e.lastErr
}

// Success closes id's circuit.
func (b *Breaker) Success(id string) {
	if b.cfg.K < 0 || id == "" {
		return
	}
	b.mu.Lock()
	delete(b.entries, id)
	b.mu.Unlock()
}

// Failure records a failure charged to id with its report; the K-th
// consecutive one opens the circuit for the cooldown (and a failed
// post-cooldown trial re-opens it immediately).
func (b *Breaker) Failure(id, code, msg string) {
	if b.cfg.K < 0 || id == "" {
		return
	}
	b.mu.Lock()
	e, ok := b.entries[id]
	if !ok {
		e = &breakerEntry{}
		b.entries[id] = e
	}
	e.consecutive++
	e.lastCode, e.lastErr = code, msg
	if e.consecutive >= b.cfg.K {
		e.openUntil = b.now().Add(b.cfg.Cooldown)
	}
	b.mu.Unlock()
}

// Snapshot reports every tracked circuit's state for the stats op,
// sorted by key so the JSON shape is deterministic. Keys are rendered
// hex (content digests are raw bytes on the wire otherwise).
func (b *Breaker) Snapshot() []BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.entries) == 0 {
		return nil
	}
	now := b.now()
	out := make([]BreakerState, 0, len(b.entries))
	for id, e := range b.entries {
		st := BreakerState{
			Pinball:     id,
			Open:        now.Before(e.openUntil),
			Consecutive: e.consecutive,
			LastCode:    e.lastCode,
		}
		if st.Open {
			st.CooldownUntilMS = e.openUntil.UnixMilli()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pinball < out[j].Pinball })
	return out
}

// OpenCount reports how many circuits are currently open.
func (b *Breaker) OpenCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	n := 0
	for _, e := range b.entries {
		if now.Before(e.openUntil) {
			n++
		}
	}
	return n
}
