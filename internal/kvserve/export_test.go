package kvserve

// ScanSource lets the external test package substitute the store behind
// /scan with a failing implementation, to pin the handler's error paths
// (pre-header 500, mid-stream abort).
type ScanSource = scanner

// SetScanSource swaps the /scan backing source; it returns the previous
// one so a test can restore the real store.
func (s *Server) SetScanSource(sc ScanSource) ScanSource {
	old := s.scan
	s.scan = sc
	return old
}

// ScanPageReply and StatsReply are the /scan page and /stats documents
// the tests decode.
type (
	ScanPageReply = scanPageReply
	StatsReply    = statsReply
)
