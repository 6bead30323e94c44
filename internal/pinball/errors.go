package pinball

import "errors"

// Load failure classes. Load wraps every error it returns around exactly
// one of these sentinels (plus the file path), so tools can map failure
// modes to exit codes and messages with errors.Is.
var (
	// ErrNotPinball marks files that do not carry the pinball magic.
	ErrNotPinball = errors.New("not a pinball file")
	// ErrVersionSkew marks pinballs written by an unknown format version.
	ErrVersionSkew = errors.New("unsupported pinball format version")
	// ErrTruncated marks files that end before their framing says they
	// should (interrupted download, partial write).
	ErrTruncated = errors.New("truncated pinball")
	// ErrCorrupt marks files whose framing is intact but whose content is
	// damaged or inconsistent: a section checksum mismatch, undecodable
	// gob, a malformed record payload, or a payload that fails structural
	// validation.
	ErrCorrupt = errors.New("corrupt pinball")
	// ErrUnsalvageable marks damaged files Salvage cannot repair: the
	// surviving prefix is missing data replay cannot do without (initial
	// state, schedule, syscall results, a slice pinball's injections), or
	// holds no intact divergence checkpoint to anchor a truncation.
	ErrUnsalvageable = errors.New("unsalvageable pinball")
)
