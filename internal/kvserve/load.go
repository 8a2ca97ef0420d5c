package kvserve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"safepriv/internal/workload"
)

// LoadConfig drives one load run against a kvserve HTTP endpoint.
type LoadConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8070".
	BaseURL string
	// Conns is the number of concurrent connections (each is one
	// worker goroutine with a keep-alive connection; default 4).
	Conns int
	// Ops is the total operation budget across all connections
	// (default 10000). The run stops at Ops or Duration, whichever
	// comes first.
	Ops int
	// Duration bounds the run's wall-clock time (0 = no bound).
	Duration time.Duration
	// QPS > 0 switches from closed-loop (each connection issues its next
	// request as soon as the last returns) to open-loop: a pacer
	// releases requests at the target aggregate rate and latency
	// includes queueing behind a saturated server.
	QPS float64
	// ReadPct is the percentage of GETs (default 70); DeletePct the
	// percentage of DELETEs (default 5); the rest are PUTs.
	ReadPct   int
	DeletePct int
	// ScanPct is the percentage of paginated scan requests (default 0).
	// Each scan op fetches ONE page (GET /scan?limit=&cursor=); the
	// worker carries its cursor across ops, so a scanning worker walks
	// the whole store page by page and restarts. The fraction comes out
	// of the PUT share. A response that is not a well-formed scan page
	// counts as an error and as a BadScans, which cmd/kvload turns into
	// a nonzero exit.
	ScanPct int
	// ScanLimit is the page size scan ops request (default 64).
	ScanLimit int
	// Zipfian draws keys from a Zipf(1.2) distribution instead of
	// uniform — the contended-hot-key shape.
	Zipfian bool
	// Keys is the key range 1..Keys (default 4096).
	Keys int64
	// Seed makes the key/op streams reproducible (default 1).
	Seed int64
	// Client overrides the HTTP client (nil = a keep-alive transport
	// sized to Conns).
	Client *http.Client
}

func (c *LoadConfig) fill() {
	if c.Conns == 0 {
		c.Conns = 4
	}
	if c.Ops == 0 {
		c.Ops = 10000
	}
	if c.ReadPct == 0 {
		c.ReadPct = 70
	}
	if c.DeletePct == 0 {
		c.DeletePct = 5
	}
	if c.Keys == 0 {
		c.Keys = 4096
	}
	if c.ScanLimit == 0 {
		c.ScanLimit = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Client == nil {
		tr := &http.Transport{
			MaxIdleConns:        c.Conns + 2,
			MaxIdleConnsPerHost: c.Conns + 2,
		}
		c.Client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
}

// LoadReport is one run's outcome. Latency quantiles come from a
// workload.Hist, so they are power-of-two upper bounds.
type LoadReport struct {
	Ops       int64
	Errors    int64
	Duration  time.Duration
	OpsPerSec float64
	P50       time.Duration
	P99       time.Duration
	P999      time.Duration
	// Hist is the full latency histogram behind the quantiles (point
	// ops only; scan pages have their own histogram below).
	Hist *workload.Hist

	// ScanOps counts scan-page requests; their latency quantiles come
	// from ScanHist, kept apart from the point ops so a page fetch
	// cannot smear the point-op tail. BadScans counts responses that
	// were not well-formed scan pages (malformed cursor, broken JSON) —
	// each also counts as an error.
	ScanOps  int64
	BadScans int64
	ScanP50  time.Duration
	ScanP99  time.Duration
	ScanHist *workload.Hist
}

// String renders the report as the one-line summary cmd/kvload prints.
func (r LoadReport) String() string {
	return fmt.Sprintf("%d ops in %v (%.0f ops/sec), %d errors, p50=%v p99=%v p999=%v",
		r.Ops, r.Duration.Round(time.Millisecond), r.OpsPerSec, r.Errors, r.P50, r.P99, r.P999)
}

// ScanString renders the scan mix's own summary line ("" when the run
// had no scan ops).
func (r LoadReport) ScanString() string {
	if r.ScanOps == 0 {
		return ""
	}
	return fmt.Sprintf("scans: %d pages, %d malformed, p50=%v p99=%v",
		r.ScanOps, r.BadScans, r.ScanP50, r.ScanP99)
}

// RunLoad drives the configured mix against the server and reports
// throughput and latency. A non-2xx status other than 404 (an absent
// key is a legitimate GET/DELETE outcome) counts as an error; transport
// failures do too. The run itself only fails (non-nil error) when the
// server is unreachable outright.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	cfg.fill()
	base := strings.TrimRight(cfg.BaseURL, "/")

	// One preflight request so a wrong address fails fast instead of
	// producing Conns×Ops transport errors.
	resp, err := cfg.Client.Get(base + "/healthz")
	if err != nil {
		return LoadReport{}, fmt.Errorf("kvload: server unreachable: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return LoadReport{}, fmt.Errorf("kvload: /healthz = %s", resp.Status)
	}

	hist := new(workload.Hist)
	scanHist := new(workload.Hist)
	var done, errs atomic.Int64
	var scanOps, badScans atomic.Int64
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = time.Now().Add(cfg.Duration)
	}

	// Open loop: a pacer releases tokens at the aggregate target rate;
	// closed loop: the (nil) channel never delivers and workers free-run.
	var tokens chan struct{}
	var pacerStop chan struct{}
	if cfg.QPS > 0 {
		tokens = make(chan struct{}, cfg.Conns)
		pacerStop = make(chan struct{})
		interval := time.Duration(float64(time.Second) / cfg.QPS)
		go func() {
			next := time.Now()
			for {
				select {
				case <-pacerStop:
					return
				default:
				}
				now := time.Now()
				if now.Before(next) {
					time.Sleep(next.Sub(now))
				}
				next = next.Add(interval)
				select {
				case tokens <- struct{}{}:
				case <-pacerStop:
					return
				}
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(w)*977))
			var zipf *rand.Zipf
			if cfg.Zipfian {
				zipf = rand.NewZipf(r, 1.2, 1, uint64(cfg.Keys-1))
			}
			scanCursor := "" // this worker's paginated-scan resume point
			for {
				if done.Add(1) > int64(cfg.Ops) {
					done.Add(-1)
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					done.Add(-1)
					return
				}
				if tokens != nil {
					<-tokens
				}
				var key int64
				if zipf != nil {
					key = 1 + int64(zipf.Uint64())
				} else {
					key = 1 + r.Int63n(cfg.Keys)
				}
				p := r.Intn(100)
				opStart := time.Now()
				var status int
				var err error
				if p < cfg.ScanPct {
					var next string
					next, status, err = doScanPage(cfg.Client, base, cfg.ScanLimit, scanCursor)
					scanHist.Add(time.Since(opStart))
					scanOps.Add(1)
					if err != nil && status == http.StatusOK {
						// 200 with an unusable body: the malformed-page case.
						badScans.Add(1)
					}
					if err != nil || status >= 300 {
						errs.Add(1)
						scanCursor = ""
					} else {
						scanCursor = next // "" when the walk wrapped around
					}
					continue
				}
				switch {
				case p < cfg.ScanPct+cfg.ReadPct:
					status, err = doReq(cfg.Client, http.MethodGet, base+"/kv/"+strconv.FormatInt(key, 10), "")
				case p < cfg.ScanPct+cfg.ReadPct+cfg.DeletePct:
					status, err = doReq(cfg.Client, http.MethodDelete, base+"/kv/"+strconv.FormatInt(key, 10), "")
				default:
					status, err = doReq(cfg.Client, http.MethodPut, base+"/kv/"+strconv.FormatInt(key, 10), strconv.FormatInt(int64(w)+1, 10))
				}
				hist.Add(time.Since(opStart))
				if err != nil || (status >= 300 && status != http.StatusNotFound) {
					errs.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if pacerStop != nil {
		close(pacerStop)
	}
	dur := time.Since(start)

	rep := LoadReport{
		Ops:      done.Load(),
		Errors:   errs.Load(),
		Duration: dur,
		P50:      hist.Quantile(0.50),
		P99:      hist.Quantile(0.99),
		P999:     hist.Quantile(0.999),
		Hist:     hist,
		ScanOps:  scanOps.Load(),
		BadScans: badScans.Load(),
		ScanP50:  scanHist.Quantile(0.50),
		ScanP99:  scanHist.Quantile(0.99),
		ScanHist: scanHist,
	}
	if dur > 0 {
		rep.OpsPerSec = float64(rep.Ops) / dur.Seconds()
	}
	return rep, nil
}

// doScanPage fetches one /scan page and validates its shape. A non-OK
// status is reported through status (err stays nil, like doReq); a 200
// whose body is not a well-formed scan page returns an error with
// status 200 — the caller counts that as a malformed page.
func doScanPage(c *http.Client, base string, limit int, cursor string) (next string, status int, err error) {
	u := base + "/scan?limit=" + strconv.Itoa(limit)
	if cursor != "" {
		u += "&cursor=" + url.QueryEscape(cursor)
	}
	resp, err := c.Get(u)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", resp.StatusCode, nil
	}
	var page scanPageReply
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return "", resp.StatusCode, fmt.Errorf("kvload: scan page: %w", err)
	}
	if page.More != (page.Cursor != "") {
		return "", resp.StatusCode, fmt.Errorf("kvload: scan page: more=%v but cursor=%q", page.More, page.Cursor)
	}
	return page.Cursor, resp.StatusCode, nil
}

func doReq(c *http.Client, method, url, body string) (int, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}
