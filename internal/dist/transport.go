package dist

import (
	"fmt"
	"io"
	"os"
	"os/exec"
)

// procTransport is a worker subprocess: frames over its stdin/stdout,
// stderr passed through to ours.
type procTransport struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	conn *conn
}

// ExecSpawner spawns worker processes from an argv (argv[0] is the
// binary, typically os.Executable() with a -worker flag) with extra
// environment entries appended. This is the production spawner behind
// cmd/busencsweep and cmd/paper -benchdist; the gen parameter is
// ignored — every life of a slot runs the same command line.
func ExecSpawner(argv []string, extraEnv []string) Spawner {
	return SpawnerFunc(func(id, gen int) (Transport, error) {
		if len(argv) == 0 {
			return nil, fmt.Errorf("dist: empty worker command")
		}
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Env = append(os.Environ(), extraEnv...)
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &procTransport{cmd: cmd, in: in, conn: newConn(out, in)}, nil
	})
}

func (p *procTransport) Send(m msg) error   { return p.conn.send(m) }
func (p *procTransport) Recv() (msg, error) { return p.conn.recv() }

// Close reaps the worker: closing stdin makes a healthy worker exit on
// EOF; Wait collects it either way. A nonzero exit here is not an
// error — crash handling happened at the protocol layer.
func (p *procTransport) Close() error {
	p.in.Close()
	p.cmd.Wait()
	return nil
}

// pipeTransport runs ServeWorker on a goroutine over in-memory pipes —
// the in-process worker used by tests and by single-process fallbacks.
// A ServeWorker return (including an injected failure) closes the
// worker's write end, so the coordinator observes exactly what a
// process exit looks like: EOF.
type pipeTransport struct {
	conn    *conn
	toWork  *io.PipeWriter
	fromWrk *io.PipeReader
	exited  chan struct{} // closed once ServeWorker has returned
}

// InProcSpawner returns a Spawner whose workers are goroutines in this
// process. optsFor picks the WorkerOpts per (id, gen) — fault-injecting
// tests return FailAfter > 0 for the lives they want to kill; nil
// means default options for every worker.
func InProcSpawner(optsFor func(id, gen int) WorkerOpts) Spawner {
	return SpawnerFunc(func(id, gen int) (Transport, error) {
		var wo WorkerOpts
		if optsFor != nil {
			wo = optsFor(id, gen)
		}
		jobR, jobW := io.Pipe() // coordinator -> worker
		resR, resW := io.Pipe() // worker -> coordinator
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			err := ServeWorker(jobR, resW, wo)
			// Closing the result pipe is the goroutine's "process
			// exit": a clean return reads as EOF after the last
			// frame, an injected failure as EOF mid-conversation.
			resW.CloseWithError(err)
			jobR.CloseWithError(err)
		}()
		return &pipeTransport{conn: newConn(resR, jobW), toWork: jobW, fromWrk: resR, exited: exited}, nil
	})
}

func (p *pipeTransport) Send(m msg) error   { return p.conn.send(m) }
func (p *pipeTransport) Recv() (msg, error) { return p.conn.recv() }

// Close reaps the worker as procTransport.Close reaps a process: it
// closes both pipes, which ends a healthy worker on EOF and fails a
// send it is blocked on, then waits for ServeWorker to return, so no
// worker still reads the trace (or has it mapped) once the sweep is
// over.
func (p *pipeTransport) Close() error {
	p.toWork.Close()
	p.fromWrk.Close()
	<-p.exited
	return nil
}
