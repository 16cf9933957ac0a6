package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"busenc/internal/codec"
	"busenc/internal/dist"
	"busenc/internal/trace"
)

// The networked-pricing tests: a dist coordinator pointed at real
// busencd-shaped peers over loopback TCP must be bit-identical to the
// reference codec.Run for every codec — through trace shipping, digest
// dedup, lock-step dispatch, a peer dying mid-sweep, and a checkpoint
// stop/resume.

// startPeer mounts a Server on a loopback listener and returns its
// host:port (what -peers takes) alongside the Server.
func startPeer(t *testing.T, cfg Config) (string, *Server) {
	t.Helper()
	s, hs := newTestServer(t, cfg, false)
	return strings.TrimPrefix(hs.URL, "http://"), s
}

// netStream mirrors the dist package's generator: sequential runs,
// jumps and random data accesses so every registered code exercises
// real state.
func netStream(width, n int, seed int64) *trace.Stream {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<width - 1
	s := trace.New("net", width)
	addr := rng.Uint64() & mask
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			addr = (addr + 4) & mask
			s.Append(addr, trace.Instr)
		case 1:
			addr = rng.Uint64() & mask
			s.Append(addr, trace.Instr)
		case 2:
			s.Append(rng.Uint64()&mask, trace.DataRead)
		default:
			s.Append(rng.Uint64()&mask, trace.DataWrite)
		}
	}
	return s
}

func netBETR(t *testing.T, s *trace.Stream) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.betr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkNetParity compares a networked sweep against the reference
// codec.Run, which shares no kernel with the Pricers the peers run.
func checkNetParity(t *testing.T, got []codec.Result, s *trace.Stream, specs []dist.CodecSpec) {
	t.Helper()
	if len(got) != len(specs) {
		t.Fatalf("%d results, want %d", len(got), len(specs))
	}
	for i, cs := range specs {
		c, err := cs.New()
		if err != nil {
			t.Fatal(err)
		}
		want, err := codec.Run(c, s)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Codec != want.Codec || got[i].Transitions != want.Transitions ||
			got[i].Cycles != want.Cycles || got[i].MaxPerCycle != want.MaxPerCycle {
			t.Errorf("codec %s: networked %+v != Run %+v", want.Codec, got[i], want)
		}
	}
}

func TestHealthz(t *testing.T) {
	s, hs := newTestServer(t, Config{}, false)
	tests := []struct {
		name, method string
		drain        bool
		status       int
		wantStatus   string
	}{
		{name: "ok", method: http.MethodGet, status: 200, wantStatus: "ok"},
		{name: "head", method: http.MethodHead, status: 200},
		{name: "post", method: http.MethodPost, status: 405},
		{name: "draining", method: http.MethodGet, drain: true, status: 200, wantStatus: "draining"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.drain {
				s.Drain(0)
			}
			resp, body := doReq(t, tc.method, hs.URL+"/healthz", nil, "")
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if tc.status != 200 || tc.method == http.MethodHead {
				return
			}
			h := s.Health()
			if h.Status != tc.wantStatus {
				t.Errorf("Health().Status = %q, want %q", h.Status, tc.wantStatus)
			}
			if h.ProtoVersion != dist.ProtoVersion {
				t.Errorf("proto version %d, want %d", h.ProtoVersion, dist.ProtoVersion)
			}
			if h.Codecs != len(codec.Names()) {
				t.Errorf("codecs %d, want %d", h.Codecs, len(codec.Names()))
			}
			if !slices.Equal(h.Kernels, []string{"auto", "scalar"}) {
				t.Errorf("kernels %v, want [auto scalar]", h.Kernels)
			}
			for _, frag := range []string{`"status"`, `"proto_version"`, `"kernels"`} {
				if !strings.Contains(string(body), frag) {
					t.Errorf("body missing %s:\n%s", frag, body)
				}
			}
		})
	}
}

func TestTraceByDigest(t *testing.T) {
	_, hs := newTestServer(t, Config{}, false)
	meta := upload(t, hs, binaryTrace(t, 128), "alice")
	tests := []struct {
		name, method, path string
		status             int
	}{
		{"hit", http.MethodGet, "/traces/" + meta.Digest, 200},
		{"head", http.MethodHead, "/traces/" + meta.Digest, 200},
		{"unknown", http.MethodGet, "/traces/sha256:" + strings.Repeat("ab", 32), 404},
		{"bad ref", http.MethodGet, "/traces/not-a-digest", 400},
		{"post", http.MethodPost, "/traces/" + meta.Digest, 405},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doReq(t, tc.method, hs.URL+tc.path, nil, "")
			if resp.StatusCode != tc.status {
				t.Errorf("%s %s = %d, want %d (%s)", tc.method, tc.path, resp.StatusCode, tc.status, body)
			}
			if tc.name == "hit" && !strings.Contains(string(body), meta.Digest) {
				t.Errorf("hit body missing digest:\n%s", body)
			}
		})
	}
}

func TestDistUpgradeRejects(t *testing.T) {
	s, hs := newTestServer(t, Config{}, false)
	resp, body := doReq(t, http.MethodGet, hs.URL+"/dist", nil, "")
	if resp.StatusCode != 400 || !strings.Contains(string(body), dist.UpgradeProtocol) {
		t.Errorf("no-upgrade GET /dist = %d %s, want 400 naming the protocol", resp.StatusCode, body)
	}
	s.Drain(0)
	req, err := http.NewRequest(http.MethodGet, hs.URL+"/dist", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", dist.UpgradeProtocol)
	rec := httptest.NewRecorder()
	s.handleDist(rec, req)
	if rec.Code != 503 {
		t.Errorf("draining /dist = %d, want 503", rec.Code)
	}
}

// TestNetSweepParity: a peers-only sweep over two loopback busencd
// peers matches Run for all registered codecs; a re-sweep ships
// zero trace bytes (both peers dedup by digest); a mixed sweep (local
// in-process worker + one peer) holds the same parity.
func TestNetSweepParity(t *testing.T) {
	const width = 32
	s := netStream(width, 16000, 43)
	path := netBETR(t, s)
	specs := dist.AllSpecs(width)
	addr1, _ := startPeer(t, Config{})
	addr2, _ := startPeer(t, Config{})

	var ns dist.NetStats
	res, err := dist.Sweep(path, dist.Opts{
		Peers:  []string{addr1, addr2},
		Shards: 8,
		Codecs: specs,
		Verify: codec.VerifyNone,
		Net:    &ns,
	})
	if err != nil {
		t.Fatalf("networked sweep: %v", err)
	}
	checkNetParity(t, res, s, specs)
	if ns.TraceShipBytes.Load() == 0 {
		t.Error("first sweep shipped zero trace bytes; expected one upload per peer")
	}
	if ns.FramesSent.Load() == 0 || ns.FramesRecv.Load() == 0 {
		t.Errorf("frame counters idle: sent %d recv %d", ns.FramesSent.Load(), ns.FramesRecv.Load())
	}

	// Re-sweep: both peers already hold the digest, so nothing ships.
	var ns2 dist.NetStats
	res, err = dist.Sweep(path, dist.Opts{
		Peers:  []string{addr1, addr2},
		Shards: 8,
		Codecs: specs,
		Verify: codec.VerifyNone,
		Net:    &ns2,
	})
	if err != nil {
		t.Fatalf("re-sweep: %v", err)
	}
	checkNetParity(t, res, s, specs)
	if got := ns2.TraceShipBytes.Load(); got != 0 {
		t.Errorf("re-sweep shipped %d trace bytes, want 0 (digest dedup)", got)
	}
	if got := ns2.TraceDedupHits.Load(); got != 2 {
		t.Errorf("re-sweep dedup hits = %d, want 2", got)
	}

	// Mixed: one local in-process worker alongside one TCP peer.
	res, err = dist.Sweep(path, dist.Opts{
		Workers: 1,
		Peers:   []string{addr1},
		Shards:  8,
		Codecs:  specs,
		Verify:  codec.VerifyNone,
		Spawn:   dist.InProcSpawner(nil),
	})
	if err != nil {
		t.Fatalf("mixed sweep: %v", err)
	}
	checkNetParity(t, res, s, specs)
}

// seederSpecs returns the specs of all whose encoder is a codec.Seeder:
// the codecs a sweep cuts into entry shards.
func seederSpecs(t *testing.T, all []dist.CodecSpec) []dist.CodecSpec {
	t.Helper()
	var out []dist.CodecSpec
	for _, cs := range all {
		c, err := cs.New()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.NewEncoder().(codec.Seeder); ok {
			out = append(out, cs)
		}
	}
	return out
}

// TestNetPeerKill: the peer's first connection dies mid-sweep; the
// coordinator redials it and re-dispatches the orphaned shards, and
// the result stays bit-identical. A single peer makes the death
// deterministic — with 8 shards of the Seeder codecs and one slot, the
// doomed first connection must receive a second job frame (with two
// peers the healthy one can drain the queue before the fault fires).
// All twelve codecs on one slot plan a single job; the peer, now past
// its first connection, prices them to Run's results too. The
// two-peer kill scenario lives in TestNetSmoke.
func TestNetPeerKill(t *testing.T) {
	const width = 32
	s := netStream(width, 16000, 47)
	path := netBETR(t, s)
	all := dist.AllSpecs(width)
	specs := seederSpecs(t, all)
	addr1, _ := startPeer(t, Config{DistFailAfter: 1})

	var ns dist.NetStats
	res, err := dist.Sweep(path, dist.Opts{
		Peers:  []string{addr1},
		Shards: 8,
		Codecs: specs,
		Verify: codec.VerifyNone,
		Net:    &ns,
	})
	if err != nil {
		t.Fatalf("sweep with peer kill: %v", err)
	}
	checkNetParity(t, res, s, specs)
	if ns.Redispatches.Load() < 1 {
		t.Errorf("redispatches = %d, want >= 1 after a peer death", ns.Redispatches.Load())
	}
	res, err = dist.Sweep(path, dist.Opts{
		Peers:  []string{addr1},
		Shards: 8,
		Codecs: all,
		Verify: codec.VerifyNone,
	})
	if err != nil {
		t.Fatalf("all codecs: %v", err)
	}
	checkNetParity(t, res, s, all)
}

// TestNetSmoke is the two-peer kill + checkpoint/resume scenario `make
// dist-smoke` runs under -race: peer 0 dies after one shard, the
// coordinator stops at the checkpoint, and the rerun resumes the
// journal to a bit-identical result. The request is t0 and the Seeder
// codecs: t0's one whole-trace group leaves a peer idle, so the plan
// cuts seven entry shards besides. A last sweep of all twelve codecs,
// one group per peer, matches Run for every registered codec.
func TestNetSmoke(t *testing.T) {
	const width = 32
	s := netStream(width, 16000, 53)
	path := netBETR(t, s)
	all := dist.AllSpecs(width)
	specs := seederSpecs(t, all)
	for _, cs := range all {
		if cs.Name == "t0" {
			specs = append(specs, cs)
		}
	}
	addr1, _ := startPeer(t, Config{DistFailAfter: 1})
	addr2, _ := startPeer(t, Config{})
	ckpt := filepath.Join(t.TempDir(), "net-sweep.json")

	opts := dist.Opts{
		Peers:      []string{addr1, addr2},
		Shards:     8,
		Codecs:     specs,
		Verify:     codec.VerifyNone,
		Checkpoint: ckpt,
	}
	first := opts
	first.StopAfter = 3
	_, err := dist.Sweep(path, first)
	if err == nil || !strings.Contains(err.Error(), "stopped") {
		t.Fatalf("first run: err = %v, want checkpoint stop", err)
	}
	res, err := dist.Sweep(path, opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	checkNetParity(t, res, s, specs)
	opts.Codecs, opts.Checkpoint = all, ""
	res, err = dist.Sweep(path, opts)
	if err != nil {
		t.Fatalf("all codecs: %v", err)
	}
	checkNetParity(t, res, s, all)
}
