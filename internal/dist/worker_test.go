package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"strings"
	"testing"

	"busenc/internal/codec"
	"busenc/internal/trace"
)

// frames encodes msgs as the wire carries them.
func frames(t testing.TB, msgs ...msg) []byte {
	t.Helper()
	var out bytes.Buffer
	c := newConn(nil, &out)
	for _, m := range msgs {
		if err := c.send(m); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// acceptedJobs returns the jobs a worker takes from in: frames decode
// in order until the first that fails to, a shutdown, a job frame
// without a job or a type a worker does not know.
func acceptedJobs(in []byte) []*Job {
	c := newConn(bytes.NewReader(in), io.Discard)
	var jobs []*Job
	for {
		m, err := c.recv()
		if err != nil {
			return jobs
		}
		switch m.Type {
		case msgPing, msgSpans:
		case msgJob:
			if m.Job == nil {
				return jobs
			}
			jobs = append(jobs, m.Job)
		default:
			return jobs
		}
	}
}

// FuzzWorkerFrames feeds arbitrary bytes to ServeWorker as the frames a
// coordinator or TCP peer sends, with every trace path resolved to one
// small BETR file. Whatever arrives, the worker must not panic or
// allocate beyond what the bytes justify, and must answer every job it
// takes with a result frame: statistics for each of the job's codecs, or
// an error.
func FuzzWorkerFrames(f *testing.F) {
	s := mixStream(32, 300, 5)
	path := writeBETR(f, s)
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	idx, err := trace.HeaderBETR(data, path)
	if err != nil {
		f.Fatal(err)
	}
	specs := AllSpecs(idx.Width)
	for i := range specs {
		specs[i].Stride = 4
	}
	job := &Job{TracePath: "trace", Stream: idx.Name, Width: idx.Width, Cut: idx.Cuts[0], N: idx.Total,
		Codecs: specs, Verify: int(codec.VerifySampled)}
	valid := frames(f, msg{Type: msgJob, Job: job}, msg{Type: msgPing}, msg{Type: msgShutdown})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], maxFrame)
	f.Add(append(huge[:], `{"type":"job"`...))
	zones := *job
	zones.Codecs = []CodecSpec{{Name: "workzone", Width: idx.Width, Zones: 1 << 24}}
	f.Add(frames(f, msg{Type: msgJob, Job: &zones}))
	// Codes that name no kernel (2 was the retired plane kernel) or no
	// verify mode.
	for _, codes := range [][2]int{{int(codec.VerifySampled), 2}, {int(codec.VerifySampled), 99}, {7, int(codec.KernelAuto)}, {-1, int(codec.KernelScalar)}} {
		bad := *job
		bad.Verify, bad.Kernel = codes[0], codes[1]
		f.Add(frames(f, msg{Type: msgJob, Job: &bad}))
	}
	resolve := func(string) (string, error) { return path, nil }
	f.Fuzz(func(t *testing.T, in []byte) {
		var out bytes.Buffer
		ServeWorker(bytes.NewReader(in), &out, WorkerOpts{Resolve: resolve})
		jobs := acceptedJobs(in)
		c := newConn(&out, io.Discard)
		hello, err := c.recv()
		if err != nil || hello.Type != msgHello {
			t.Fatalf("first frame %+v, %v; want a hello", hello, err)
		}
		results := 0
		for {
			m, err := c.recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("worker wrote a bad frame: %v", err)
			}
			if m.Type != msgResult {
				continue
			}
			if results >= len(jobs) {
				t.Fatalf("result %d for %d jobs", results+1, len(jobs))
			}
			r := m.Result
			if r == nil || r.Err == "" && len(r.Stats) != len(jobs[results].Codecs) || r.Err != "" && r.Stats != nil {
				t.Fatalf("result %+v for %d codecs: want statistics for each or an error", r, len(jobs[results].Codecs))
			}
			results++
		}
		if results != len(jobs) {
			t.Fatalf("%d results for %d jobs", results, len(jobs))
		}
	})
}

// TestWorkerRefusesDuplicateCodec: a job naming a codec twice gets an
// error result, as a sweep requesting one twice is refused, since
// results are keyed by codec name.
func TestWorkerRefusesDuplicateCodec(t *testing.T) {
	s := mixStream(32, 100, 3)
	path := writeBETR(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := trace.HeaderBETR(data, path)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{TracePath: path, Stream: idx.Name, Width: idx.Width, Cut: idx.Cuts[0], N: idx.Total,
		Codecs: []CodecSpec{{Name: "t0", Width: 32, Stride: 4}, {Name: "t0", Width: 32, Stride: 8}}}
	var out bytes.Buffer
	if err := ServeWorker(bytes.NewReader(frames(t, msg{Type: msgJob, Job: job})), &out, WorkerOpts{}); err != nil {
		t.Fatal(err)
	}
	c := newConn(&out, io.Discard)
	for {
		m, err := c.recv()
		if err != nil {
			t.Fatalf("no result: %v", err)
		}
		if m.Type == msgResult {
			if want := "codec t0 requested twice"; m.Result == nil || !strings.Contains(m.Result.Err, want) {
				t.Fatalf("result %+v, want an error naming %q", m.Result, want)
			}
			return
		}
	}
}

// TestWorkerRefusesUnknownModes: a job whose verify or kernel code names
// no mode, as a coordinator of another version may send (kernel 2 was
// the retired plane kernel), gets an error result naming the job and
// the code, never a silent price on some other kernel.
func TestWorkerRefusesUnknownModes(t *testing.T) {
	s := mixStream(32, 100, 3)
	path := writeBETR(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := trace.HeaderBETR(data, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		verify, kernel int
		want           string
	}{
		{int(codec.VerifySampled), 2, "dist: job 3: codec: kernel code 2 names no kernel"},
		{int(codec.VerifyNone), 99, "dist: job 3: codec: kernel code 99 names no kernel"},
		{7, int(codec.KernelAuto), "dist: job 3: codec: verify code 7 names no verify mode"},
		{-1, int(codec.KernelScalar), "dist: job 3: codec: verify code -1 names no verify mode"},
	} {
		job := &Job{TracePath: path, Stream: idx.Name, Width: idx.Width, Shard: 3, Cut: idx.Cuts[0], N: idx.Total,
			Codecs: []CodecSpec{{Name: "gray", Width: 32, Stride: 4}}, Verify: tc.verify, Kernel: tc.kernel}
		var out bytes.Buffer
		if err := ServeWorker(bytes.NewReader(frames(t, msg{Type: msgJob, Job: job})), &out, WorkerOpts{}); err != nil {
			t.Fatal(err)
		}
		c := newConn(&out, io.Discard)
		for {
			m, err := c.recv()
			if err != nil {
				t.Fatalf("verify %d kernel %d: no result: %v", tc.verify, tc.kernel, err)
			}
			if m.Type != msgResult {
				continue
			}
			if m.Result == nil || m.Result.Stats != nil || !strings.Contains(m.Result.Err, tc.want) {
				t.Fatalf("verify %d kernel %d: result %+v, want an error naming %q", tc.verify, tc.kernel, m.Result, tc.want)
			}
			break
		}
	}
}
