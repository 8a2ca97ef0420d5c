// Command kvserver serves internal/stmkv over HTTP: the paper's
// privatize→fence→operate→publish machinery as a long-running network
// service (internal/kvserve holds the handler and threading design;
// cmd/kvload drives it).
//
// Configuration is by environment, container-style:
//
//	KVSERVER_ADDR     listen address            (default ":8070")
//	KVSERVER_SPEC     engine spec of the TM     (default "tl2"; the
//	                  unsafe-fence ablations tl2+nofence and
//	                  tl2+skipro are refused at startup)
//	KVSERVER_SHARDS   store shard count         (default "16")
//	KVSERVER_SLOTS    per-shard slot arena      (default "512")
//	KVSERVER_THREADS  request worker pool size  (default "8")
//
// On SIGINT/SIGTERM the server shuts down in the safe order: stop
// accepting, drain in-flight HTTP requests, then kvserve.Server.Drain,
// which turns healthz to 503. Exit status 0 means the shutdown
// completed; 1 means startup or the listener failed.
package main

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"safepriv/internal/kvserve"
)

// getEnv reads key with a fallback, the 12-factor default pattern.
func getEnv(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

func getEnvInt(log *slog.Logger, key string, fallback int) int {
	v := os.Getenv(key)
	if v == "" {
		return fallback
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		log.Error("bad integer in environment", "var", key, "value", v)
		os.Exit(1)
	}
	return n
}

func main() {
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(log)

	addr := getEnv("KVSERVER_ADDR", ":8070")
	cfg := kvserve.Config{
		Spec:    getEnv("KVSERVER_SPEC", "tl2"),
		Shards:  getEnvInt(log, "KVSERVER_SHARDS", 16),
		Slots:   getEnvInt(log, "KVSERVER_SLOTS", 512),
		Threads: getEnvInt(log, "KVSERVER_THREADS", 8),
		Logger:  log,
	}

	srv, err := kvserve.New(cfg)
	if err != nil {
		log.Error("startup failed", "err", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Shutdown order per the package doc: drain in-flight HTTP first,
	// then turn healthz to 503. The store has nothing to settle.
	log.Info("signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("http shutdown", "err", err)
	}
	_ = srv.Drain() // always nil
	log.Info("drained clean, exiting")
}
