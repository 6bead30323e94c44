package cli

import "repro/internal/sessiond"

// SessionClient talks the sessiond line-JSON protocol to a drserved
// instance. The implementation lives in internal/sessiond (the fleet's
// coordinator/worker links reuse it); this alias keeps the cmd-layer
// API where tools expect it.
type SessionClient = sessiond.Client

// DialSession connects to a drserved instance.
func DialSession(addr string) (*SessionClient, error) {
	return sessiond.Dial(addr)
}

// SessionExitCode maps a sessiond response onto the shared exit-code
// table, so `drserved -client` composes with the one-shot tools in
// scripts: the same failure class yields the same exit status whether
// the session ran in-process, in the daemon, or across the fleet.
func SessionExitCode(resp *sessiond.Response) int {
	if resp.OK {
		switch resp.Code {
		case sessiond.CodeEstimated:
			return ExitEstimated
		case sessiond.CodeDegraded, sessiond.CodeSalvaged:
			return ExitDegraded
		case sessiond.CodeRedispatched, sessiond.CodeHealed:
			// Right answer, limping infrastructure: the fleet re-dispatched
			// around a dead worker, or the store healed a damaged copy
			// before the session ran.
			return ExitFleetDegraded
		}
		return 0
	}
	switch resp.Code {
	case sessiond.CodeCorrupt:
		return ExitBadPinball
	case sessiond.CodeDivergence, sessiond.CodeLimit:
		return ExitDiverged
	case sessiond.CodePanic:
		return ExitPanic
	case sessiond.CodeTimeout:
		return ExitHung
	case sessiond.CodeOverload, sessiond.CodeDraining, sessiond.CodeCircuitOpen, sessiond.CodeNoWorkers:
		return ExitUnavailable
	case sessiond.CodeStoreUnavailable:
		return ExitStoreUnavailable
	}
	return ExitUsage
}
