package atomictm

// WithStripes sets the lock-table size for the external runtime tests.
var WithStripes = withStripes
