package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"squall"
)

// The join_tcp worker is this binary re-executed with workerEnv set. It
// serves cluster sessions on a loopback port and talks to its parent over
// its standard streams:
//
//	stdout  "ADDR <host:port>" once, then "CPU <ns>" per request
//	stdin   "cpu" asks for the process's user+sys time so far; end of file
//	        (the parent closing the pipe, or dying) makes the worker exit
const workerEnv = "SQUALL_BENCH_WORKER"

// selfCPU is this process's user+sys CPU time so far.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuTime is the CPU spent so far by this process and, if there is one, the
// worker.
func cpuTime(w *worker) (time.Duration, error) {
	cpu, err := selfCPU()
	if err != nil || w == nil {
		return cpu, err
	}
	wc, err := w.cpu()
	return cpu + wc, err
}

// workerMain is the worker process. It never returns.
func workerMain() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench worker: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	go func() {
		err := squall.ServeWorker(ln)
		fmt.Fprintf(os.Stderr, "bench worker: %v\n", err)
		os.Exit(1)
	}()
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() != "cpu" {
			continue
		}
		cpu, err := selfCPU()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench worker: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("CPU %d\n", cpu.Nanoseconds())
	}
	os.Exit(0)
}

// worker is the parent's handle on one worker process.
type worker struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
}

// workerTimeout bounds every wait on the worker: its start-up, a CPU reply,
// its exit after stdin closes.
const workerTimeout = 20 * time.Second

func startWorker() (*worker, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting worker: %w", err)
	}
	w := &worker{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	addr, err := w.reply("ADDR ")
	if err != nil {
		w.stop()
		return nil, err
	}
	w.addr = addr
	return w, nil
}

// reply reads the worker's next line, which must start with prefix. A
// worker that stays silent is killed, which unblocks the read.
func (w *worker) reply(prefix string) (string, error) {
	kill := time.AfterFunc(workerTimeout, func() { w.cmd.Process.Kill() })
	line, err := w.out.ReadString('\n')
	kill.Stop()
	if err != nil {
		return "", fmt.Errorf("worker: reading %q reply: %w", prefix, err)
	}
	rest, ok := strings.CutPrefix(strings.TrimSpace(line), prefix)
	if !ok {
		return "", fmt.Errorf("worker: got %q, want a line starting %q", line, prefix)
	}
	return rest, nil
}

func (w *worker) cpu() (time.Duration, error) {
	if _, err := io.WriteString(w.stdin, "cpu\n"); err != nil {
		return 0, fmt.Errorf("worker: asking for cpu: %w", err)
	}
	s, err := w.reply("CPU ")
	if err != nil {
		return 0, err
	}
	ns, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("worker: cpu reply: %w", err)
	}
	return time.Duration(ns), nil
}

// stop closes the worker's stdin, which makes it exit, and reaps it; a
// worker that does not exit is killed. Safe to call once per worker.
func (w *worker) stop() error {
	w.stdin.Close()
	kill := time.AfterFunc(workerTimeout, func() { w.cmd.Process.Kill() })
	defer kill.Stop()
	if err := w.cmd.Wait(); err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	return nil
}
