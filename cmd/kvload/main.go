// Command kvload drives an HTTP load against a running kvserver and
// reports throughput with latency quantiles (internal/kvserve.RunLoad
// is the engine).
//
// Closed loop by default — each connection issues its next request as
// soon as the previous returns — or open loop with -qps, where a pacer
// releases requests at the target aggregate rate and the latency
// numbers include queueing behind a saturated server.
//
// Usage:
//
//	kvload -addr http://127.0.0.1:8070 -conns 8 -ops 50000
//	kvload -addr http://127.0.0.1:8070 -qps 2000 -duration 30s -read 95
//	kvload -addr http://127.0.0.1:8070 -zipf -keys 1024
//	kvload -addr http://127.0.0.1:8070 -scan 10 -scanlimit 128
//
// -scan N makes N% of the ops paginated scan-page fetches
// (GET /scan?limit=&cursor=, each worker walking its own cursor); their
// latency is reported on a separate summary line so page fetches don't
// smear the point-op quantiles.
//
// Exit status is 1 when the server is unreachable, any request failed
// (non-2xx other than the 404 of an absent key), or any scan response
// was not a well-formed page — so the command doubles as a smoke check
// in CI.
package main

import (
	"flag"
	"fmt"
	"os"

	"safepriv/internal/kvserve"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8070", "server base URL")
		conns    = flag.Int("conns", 4, "concurrent connections")
		ops      = flag.Int("ops", 10000, "total operation budget")
		duration = flag.Duration("duration", 0, "wall-clock bound (0 = none)")
		qps      = flag.Float64("qps", 0, "open-loop target rate (0 = closed loop)")
		read     = flag.Int("read", 70, "GET percentage")
		del      = flag.Int("del", 5, "DELETE percentage")
		zipf     = flag.Bool("zipf", false, "zipfian keys instead of uniform")
		keys     = flag.Int64("keys", 4096, "key range 1..keys")
		seed     = flag.Int64("seed", 1, "random seed")
		scan     = flag.Int("scan", 0, "scan-page percentage of the mix")
		scanlim  = flag.Int("scanlimit", 64, "page size scan ops request")
	)
	flag.Parse()

	rep, err := kvserve.RunLoad(kvserve.LoadConfig{
		BaseURL:   *addr,
		Conns:     *conns,
		Ops:       *ops,
		Duration:  *duration,
		QPS:       *qps,
		ReadPct:   *read,
		DeletePct: *del,
		Zipfian:   *zipf,
		Keys:      *keys,
		Seed:      *seed,
		ScanPct:   *scan,
		ScanLimit: *scanlim,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvload:", err)
		os.Exit(1)
	}
	fmt.Println(rep)
	if line := rep.ScanString(); line != "" {
		fmt.Println(line)
	}
	if rep.BadScans > 0 {
		fmt.Fprintf(os.Stderr, "kvload: %d of %d scan pages were malformed\n", rep.BadScans, rep.ScanOps)
		os.Exit(1)
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "kvload: %d of %d requests failed\n", rep.Errors, rep.Ops)
		os.Exit(1)
	}
}
