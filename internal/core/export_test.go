package core

// The backoff policy, for its table test.
const (
	MaxAttempts = maxAttempts
	BackoffCap  = backoffCap
)

var BackoffDelay = backoffDelay
