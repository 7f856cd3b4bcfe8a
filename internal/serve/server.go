package serve

import (
	"context"
	"net/http"
	"time"
)

// Limits every listener in the module runs behind. There is
// deliberately no ReadTimeout or WriteTimeout: they would cut legitimate
// shard uploads and long /v1/sessions scans; bodies are bounded where
// they are read instead (store.Receive's per-file caps, the fleet
// dispatcher's control-body cap).
const (
	readHeaderTimeout = 10 * time.Second // the slow-client (slowloris) bound
	idleTimeout       = 2 * time.Minute  // unused keep-alive connections
	// maxHeaderBytes caps the request line plus headers (431 over it);
	// the largest legitimate header is an If-None-Match list.
	maxHeaderBytes = 64 << 10
	drainTimeout   = 5 * time.Second // in-flight requests after cancel
)

// NewServer wraps h in an http.Server with the module's header timeout
// and size limits set. Campaign.Serve, the dispatch status listener and
// the fleet listener are all built here, so no listener goes up without
// them.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// ListenAndServe serves h on addr until ctx is cancelled, then drains
// in-flight requests for up to five seconds. Request contexts
// deliberately do not derive from ctx: cancelling ctx triggers the
// graceful shutdown, which must be able to drain in-flight requests
// rather than abort them.
func ListenAndServe(ctx context.Context, addr string, h http.Handler) error {
	srv := NewServer(h)
	srv.Addr = addr
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}
