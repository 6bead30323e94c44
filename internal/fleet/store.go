package fleet

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/sessiond"
	"repro/internal/store"
	"repro/internal/supervisor"
)

// storeOp answers the store ops at the coordinator. Locate is answered
// from the registry (the fleet-wide ranking workers heal from); puts
// are placed on the digest's rendezvous owner and replicated to its
// successor; fetch and stat forward to the owner with the ordinary
// transport failover.
func (co *Coordinator) storeOp(req *sessiond.Request) sessiond.Response {
	switch req.Op {
	case sessiond.OpStoreLocate:
		if req.Digest == "" {
			return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest,
				Error: "store_locate needs digest"}
		}
		workers := co.reg.Ranked("digest:"+req.Digest, co.circuitOpen)
		addrs := make([]string, 0, len(workers))
		for _, w := range workers {
			addrs = append(addrs, w.Addr)
		}
		return sessiond.Response{ID: req.ID, OK: true, Result: encode(sessiond.StoreLocateResult{
			Digest: req.Digest, Addrs: addrs,
		})}
	case sessiond.OpStorePut:
		return co.storePut(req)
	case sessiond.OpStoreFetch, sessiond.OpStoreStat:
		if req.Digest == "" {
			return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest,
				Error: req.Op + " needs digest"}
		}
		return co.forward(req, "digest:"+req.Digest)
	}
	return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest,
		Error: "unknown store op " + req.Op}
}

// storePut uploads the blob to the digest's rendezvous owner (failing
// over down the ranking on transport errors) and then best-effort
// replicates it to the next-ranked worker, so the owner dying does not
// strand the fleet's only copy. The answer is the primary's, decorated
// with the full acknowledged replica list. A typed refusal from a
// worker (corrupt blob, no store configured) is the request's answer —
// every other worker would refuse identically.
func (co *Coordinator) storePut(req *sessiond.Request) sessiond.Response {
	if len(req.Blob) == 0 {
		return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest,
			Error: "store_put needs blob"}
	}
	digest := store.Digest(req.Blob)
	ranked := co.reg.Ranked("digest:"+digest, co.circuitOpen)
	if len(ranked) == 0 {
		return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeNoWorkers,
			Error: "no live worker to store on"}
	}

	var primary *sessiond.Response
	var acked []string
	var lastErr error
	var backoff time.Duration
	attempts := 0
	for _, w := range ranked {
		if primary == nil && attempts >= co.cfg.MaxAttempts {
			break
		}
		if primary == nil && attempts > 0 {
			backoff = supervisor.DecorrelatedJitter(backoff, co.cfg.RetryBase, co.cfg.RetryMax, co.cfg.Rand)
			co.cfg.Sleep(backoff)
		}
		attempts++
		resp, err := co.send(w, req, nil)
		if err != nil {
			co.cfg.Logf("fleet: store_put %s to %s failed: %v", digest, w.Name, err)
			lastErr = err
			continue
		}
		if !resp.OK {
			if primary == nil {
				resp.ID = req.ID
				return *resp
			}
			// The replica refused (e.g. no store configured there); the
			// primary already holds the bytes, so the put still succeeds.
			co.cfg.Logf("fleet: store_put replica on %s refused: %s", w.Name, resp.Code)
			break
		}
		acked = append(acked, w.Name)
		if primary != nil {
			break // owner + one successor is the replication factor
		}
		primary = resp
	}
	if primary == nil {
		msg := "no live worker to store on"
		if lastErr != nil {
			msg = fmt.Sprintf("no worker accepted the put after %d attempts: %v", attempts, lastErr)
		}
		return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeNoWorkers, Error: msg}
	}

	// Decorate the primary's answer with who acknowledged the bytes.
	var pr sessiond.StorePutResult
	if err := json.Unmarshal(primary.Result, &pr); err == nil {
		pr.Replicas = acked
		primary.Result = encode(pr)
	}
	primary.ID = req.ID
	return *primary
}

// CoordinatorLocator implements sessiond.Locator for a worker daemon:
// ask the coordinator which workers the fleet ranks to hold a digest,
// drop the asking worker itself, and return the rest best-first. Every
// call opens a fresh connection — locates happen only on the healing
// path, where staleness costs more than a dial.
type CoordinatorLocator struct {
	// Coordinator is the coordinator's address.
	Coordinator string
	// DialTimeout bounds the connect (default 2s).
	DialTimeout time.Duration
	// Dial injects the transport for tests (nil = sessiond.DialTimeout).
	Dial func(addr string, timeout time.Duration) (*sessiond.Client, error)

	mu   sync.Mutex
	self string
}

// SetSelf records the worker's own advertised address, which Locate
// excludes — a daemon healing its store must never "fetch" from itself.
// Settable after construction because the advertised address is only
// known once the listener is bound.
func (l *CoordinatorLocator) SetSelf(addr string) {
	l.mu.Lock()
	l.self = addr
	l.mu.Unlock()
}

// Locate implements sessiond.Locator. Failures return nil — the healing
// ladder treats an unreachable coordinator like having no peers.
func (l *CoordinatorLocator) Locate(digest string) []string {
	dial := l.Dial
	if dial == nil {
		dial = sessiond.DialTimeout
	}
	d := l.DialTimeout
	if d <= 0 {
		d = 2 * time.Second
	}
	c, err := dial(l.Coordinator, d)
	if err != nil {
		return nil
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	resp, err := c.Do(&sessiond.Request{Op: sessiond.OpStoreLocate, Digest: digest, Proto: sessiond.ProtoCurrent})
	if err != nil || !resp.OK {
		return nil
	}
	var lr sessiond.StoreLocateResult
	if err := json.Unmarshal(resp.Result, &lr); err != nil {
		return nil
	}
	l.mu.Lock()
	self := l.self
	l.mu.Unlock()
	out := lr.Addrs[:0:0]
	for _, a := range lr.Addrs {
		if a != self {
			out = append(out, a)
		}
	}
	return out
}
