package stmds

// WindowPairs exports windowPairs, the most pairs a SkipMap scan
// window walks, to the external test package.
const WindowPairs = windowPairs
