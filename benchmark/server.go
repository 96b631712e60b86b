package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind: the server binary, the
// servers' temp dirs and the span files. It is relative to the working
// directory (the checkout root) and listed in .gitignore.
const buildDir = ".bench_build"

// drainWindow is how long a server may take to exit after SIGTERM. The
// server's own grace period is 10 s; with every client stopped there is
// nothing in flight, so a clean exit takes milliseconds.
const drainWindow = 12 * time.Second

// bootTimeout bounds one server start (data generation at 1 M points is
// ~2 s on this class of host).
const bootTimeout = 90 * time.Second

// buildServer compiles cmd/urbane-server from the checkout's source into
// dir.
func buildServer(ctx context.Context, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "urbane-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/urbane-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/urbane-server: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one urbane-server subprocess.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	tmp    string // the process's TMPDIR, scanned for leftovers after exit
	setup  time.Duration
	waited chan struct{} // closed when the process has been reaped
	mu     sync.Mutex
	log    []string // stderr lines, kept for failure reports
	exit   error
}

// startServer launches the binary on a free loopback port and returns once
// GET /api/datasets answers 200. setup is process start → that answer. The
// process gets a TMPDIR of its own under dir.
func startServer(bin, dir string, cfg serverConfig) (*serverProc, error) {
	tmp, err := os.MkdirTemp(dir, "srvtmp-")
	if err != nil {
		return nil, err
	}
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		return nil, err
	}
	s := &serverProc{tmp: tmp, waited: make(chan struct{})}
	s.cmd = exec.Command(bin, cfg.flags()...)
	s.cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	if cfg.Procs > 0 {
		s.cmd.Env = append(s.cmd.Env, "GOMAXPROCS="+strconv.Itoa(cfg.Procs))
	}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}

	addr := make(chan string, 1)
	go func() {
		defer close(s.waited)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.log = append(s.log, line)
			s.mu.Unlock()
			if _, after, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(after):
				default:
				}
			}
		}
		err := s.cmd.Wait()
		s.mu.Lock()
		s.exit = err
		s.mu.Unlock()
	}()

	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.waited:
		os.RemoveAll(s.tmp)
		return nil, fmt.Errorf("server exited during start-up: %v\n%s", s.exit, s.tail())
	case <-time.After(bootTimeout):
		s.kill()
		return nil, fmt.Errorf("server did not log its address within %v\n%s", bootTimeout, s.tail())
	}
	probe := http.Client{Timeout: 5 * time.Second} // a server that accepts and never answers must not outlast bootTimeout
	for {
		resp, err := probe.Get(s.base + "/api/datasets")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > bootTimeout {
			s.kill()
			return nil, fmt.Errorf("server not ready within %v: %v", bootTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.setup = time.Since(start)
	return s, nil
}

func (s *serverProc) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.log)
	if n > 12 {
		n = 12
	}
	return strings.Join(s.log[len(s.log)-n:], "\n")
}

// kill is the error-path stop: no hygiene checks, just make sure the
// process is gone and its temp dir with it.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill()
	<-s.waited
	os.RemoveAll(s.tmp)
}

// rssPeakMB reads the server's peak resident set (VmHWM) from /proc.
func (s *serverProc) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stop sends SIGTERM and requires a clean exit within the drain window and
// nothing left behind in the server's temp dir (urbane-segments-* must be
// removed by the server itself).
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case <-s.waited:
	case <-time.After(drainWindow):
		s.kill()
		return fmt.Errorf("server still running %v after SIGTERM\n%s", drainWindow, s.tail())
	}
	defer os.RemoveAll(s.tmp)
	if s.exit != nil {
		return fmt.Errorf("server exit after SIGTERM: %v\n%s", s.exit, s.tail())
	}
	left, err := os.ReadDir(s.tmp)
	if err != nil {
		return err
	}
	if len(left) > 0 {
		names := make([]string, len(left))
		for i, e := range left {
			names[i] = e.Name()
		}
		return fmt.Errorf("server left temp files behind: %s", strings.Join(names, ", "))
	}
	return nil
}
