package serve

import (
	"net/http"
	"runtime"
	"strings"

	"busenc/internal/codec"
	"busenc/internal/dist"
)

// GET /healthz: the version/capability half of the dist peer
// handshake. A coordinator refuses to dispatch to a peer whose
// protocol version differs from its own; the rest of the reply
// (kernels, GOMAXPROCS, codec count) is capacity information for
// operators and load balancers. Status flips to "draining" during a
// graceful shutdown so new peers stop selecting this daemon while
// accepted work finishes.

// kernelNames are the pricing kernels this build can route to.
var kernelNames = []string{"auto", "scalar"}

// Health returns the current capability snapshot.
func (s *Server) Health() dist.PeerHealth {
	status := "ok"
	if s.queue.Draining() {
		status = "draining"
	}
	return dist.PeerHealth{
		Status:       status,
		ProtoVersion: dist.ProtoVersion,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Kernels:      kernelNames,
		Codecs:       len(codec.Names()),
	}
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		Error(w, http.StatusMethodNotAllowed, "method %s not allowed on /healthz", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, s.Health())
}

// handleTraceByDigest serves GET/HEAD /traces/{digest}: the stored
// metadata, or 404. Dist coordinators probe it before shipping a trace
// so a peer that already holds the digest receives zero bytes.
func (s *Server) handleTraceByDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		Error(w, http.StatusMethodNotAllowed, "method %s not allowed on /traces/{digest}", r.Method)
		return
	}
	ref := strings.TrimPrefix(r.URL.Path, "/traces/")
	if !IsDigest(ref) {
		Error(w, http.StatusBadRequest, "want /traces/sha256:<64 hex>, got %q", ref)
		return
	}
	meta, ok := s.store.Lookup(ref)
	if !ok {
		Error(w, http.StatusNotFound, "unknown trace digest %q", ref)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}
