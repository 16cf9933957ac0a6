package dist

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"busenc/internal/obs"
)

// Network transport: the coordinator prices jobs on remote busencd
// peers. The peer side is internal/serve's /dist endpoint — a hijacked
// HTTP upgrade that then speaks the exact stdin/stdout frame protocol
// (same framing, same 64MB cap, same hello/ping/job/result/shutdown
// messages), so a TCP peer is indistinguishable from a local worker
// process above the Transport interface. The one wire difference is
// trace addressing: peers cannot see the coordinator's filesystem, so
// the trace ships once by SHA-256 digest into the peer's
// content-addressed store (POST /traces, deduplicated — re-sweeping a
// shipped trace moves zero trace bytes) and jobs carry the
// "sha256:..." ref instead of a path.

// UpgradeProtocol is the Upgrade header token of the /dist handshake.
const UpgradeProtocol = "busenc-dist"

// dialTimeout bounds the TCP connect plus the 101 upgrade exchange;
// job pricing itself is governed by heartbeats, not deadlines.
const dialTimeout = 10 * time.Second

// NetStats accumulates network-transport counters for one sweep. The
// counter fields are atomics: the framing layer and every slot
// goroutine add concurrently. The same numbers feed the gated
// dist.net.* metrics. Per-worker clock-offset estimates (one sample
// per ping/pong round trip, narrowest RTT retained) live behind the
// mutex.
type NetStats struct {
	FramesSent        atomic.Int64
	FramesRecv        atomic.Int64
	BytesSent         atomic.Int64
	BytesRecv         atomic.Int64
	TraceShipBytes    atomic.Int64 // trace bytes uploaded to peers
	TraceDedupHits    atomic.Int64 // peers that already held the digest
	Redispatches      atomic.Int64 // jobs requeued after a worker death
	HeartbeatTimeouts atomic.Int64

	mu     sync.Mutex
	clocks map[string]ClockEstimate // worker "host/pid" -> best offset estimate
}

// RecordClockSample folds one RTT-midpoint offset sample for a worker
// in, keeping the estimate from the narrowest round trip.
func (ns *NetStats) RecordClockSample(key string, offsetNs, rttNs int64) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.clocks == nil {
		ns.clocks = make(map[string]ClockEstimate)
	}
	e, ok := ns.clocks[key]
	if !ok || rttNs < e.RTTNs {
		e.OffsetNs = offsetNs
		e.RTTNs = rttNs
	}
	e.Samples++
	ns.clocks[key] = e
}

// Clocks returns a copy of the per-worker clock estimates.
func (ns *NetStats) Clocks() map[string]ClockEstimate {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	out := make(map[string]ClockEstimate, len(ns.clocks))
	for k, v := range ns.clocks {
		out[k] = v
	}
	return out
}

// PeerHealth is the GET /healthz reply of a busencd peer — the
// capability half of the peer handshake. The coordinator refuses peers
// whose protocol version differs; everything else is informational.
type PeerHealth struct {
	Status       string   `json:"status"` // "ok" or "draining"
	ProtoVersion int      `json:"proto_version"`
	GoMaxProcs   int      `json:"gomaxprocs"`
	Kernels      []string `json:"kernels"`
	Codecs       int      `json:"codecs"`
}

// healthClient bounds the handshake round trips; uploads use a
// transport without an overall deadline (a big trace may take a while)
// but inherit the dial timeout.
var healthClient = &http.Client{Timeout: dialTimeout}

var shipClient = &http.Client{Transport: &http.Transport{
	DialContext: (&net.Dialer{Timeout: dialTimeout}).DialContext,
}}

// checkPeer performs the capability handshake with one peer.
func checkPeer(addr string) (PeerHealth, error) {
	resp, err := healthClient.Get("http://" + addr + "/healthz")
	if err != nil {
		return PeerHealth{}, fmt.Errorf("dist: peer %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return PeerHealth{}, fmt.Errorf("dist: peer %s: /healthz returned %s", addr, resp.Status)
	}
	var h PeerHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return PeerHealth{}, fmt.Errorf("dist: peer %s: bad /healthz body: %w", addr, err)
	}
	if h.ProtoVersion != ProtoVersion {
		return PeerHealth{}, fmt.Errorf("dist: peer %s speaks protocol %d, want %d", addr, h.ProtoVersion, ProtoVersion)
	}
	if h.Status != "ok" {
		return PeerHealth{}, fmt.Errorf("dist: peer %s is %s", addr, h.Status)
	}
	return h, nil
}

// shipTrace makes the planned trace available on every peer and
// returns its content address. Each peer is probed first (GET
// /traces/{digest}): a hit means the peer already holds the bytes and
// nothing ships — the dedup property the re-sweep benchmarks assert.
func shipTrace(root obs.SpanHandle, plan *planned, peers []string, ns *NetStats) (string, error) {
	sp := root.Child("dist.net.ship", obs.StageNet)
	sum := sha256.Sum256(plan.data)
	ref := "sha256:" + hex.EncodeToString(sum[:])
	for _, addr := range peers {
		if _, err := checkPeer(addr); err != nil {
			sp.EndErr(err)
			return "", err
		}
		have, err := peerHasTrace(addr, ref)
		if err != nil {
			sp.EndErr(err)
			return "", err
		}
		if have {
			ns.TraceDedupHits.Add(1)
			recordTraceDedup()
			continue
		}
		if err := uploadTrace(addr, ref, plan.data, ns); err != nil {
			sp.EndErr(err)
			return "", err
		}
	}
	sp.End()
	return ref, nil
}

// peerHasTrace probes the peer's store for a digest.
func peerHasTrace(addr, ref string) (bool, error) {
	resp, err := healthClient.Get("http://" + addr + "/traces/" + ref)
	if err != nil {
		return false, fmt.Errorf("dist: peer %s: %w", addr, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("dist: peer %s: trace probe returned %s", addr, resp.Status)
	}
}

// uploadTrace POSTs the raw trace bytes and verifies the peer stored
// them under the expected address — a digest mismatch means the bytes
// were corrupted in flight and pricing against them would be silent
// garbage.
func uploadTrace(addr, ref string, data []byte, ns *NetStats) error {
	resp, err := shipClient.Post("http://"+addr+"/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("dist: peer %s: upload: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("dist: peer %s: upload returned %s: %s", addr, resp.Status, bytes.TrimSpace(body))
	}
	var meta struct {
		Digest string `json:"digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return fmt.Errorf("dist: peer %s: bad upload reply: %w", addr, err)
	}
	if meta.Digest != ref {
		return fmt.Errorf("dist: peer %s stored digest %.19s, want %.19s", addr, meta.Digest, ref)
	}
	ns.TraceShipBytes.Add(int64(len(data)))
	recordTraceShip(len(data))
	return nil
}

// tcpTransport is one upgraded /dist connection.
type tcpTransport struct {
	nc net.Conn
	c  *conn
}

func (t *tcpTransport) Send(m msg) error   { return t.c.send(m) }
func (t *tcpTransport) Recv() (msg, error) { return t.c.recv() }
func (t *tcpTransport) Close() error       { return t.nc.Close() }

// dialDist opens one worker connection to a peer: TCP connect, a
// hand-rolled HTTP/1.1 Upgrade to the busenc-dist protocol, then the
// framed byte stream. The response's buffered reader is kept — frames
// the peer wrote right after the 101 may already sit in it.
func dialDist(addr string, ns *NetStats) (Transport, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dist: peer %s: %w", addr, err)
	}
	nc.SetDeadline(time.Now().Add(dialTimeout))
	req := fmt.Sprintf("GET /dist HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", addr, UpgradeProtocol)
	if _, err := io.WriteString(nc, req); err != nil {
		nc.Close()
		return nil, fmt.Errorf("dist: peer %s: upgrade write: %w", addr, err)
	}
	br := bufio.NewReaderSize(nc, 1<<16)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("dist: peer %s: upgrade read: %w", addr, err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		nc.Close()
		return nil, fmt.Errorf("dist: peer %s: upgrade refused: %s: %s", addr, resp.Status, bytes.TrimSpace(body))
	}
	nc.SetDeadline(time.Time{})
	c := newConn(br, nc)
	c.stats = ns
	return &tcpTransport{nc: nc, c: c}, nil
}

// peerSpawner adapts one peer address to the Spawner interface: every
// (re)spawn of the slot is a fresh /dist connection.
func peerSpawner(addr string, ns *NetStats) Spawner {
	return SpawnerFunc(func(id, gen int) (Transport, error) {
		sp := obs.StartSpan("dist.net.dial", obs.StageNet).WithStream(addr)
		t, err := dialDist(addr, ns)
		sp.EndErr(err)
		return t, err
	})
}
