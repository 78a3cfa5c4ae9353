package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server process the benchmark started.
type proc struct {
	name  string
	cmd   *exec.Cmd
	start time.Time
	log   *os.File
	done  chan struct{}
}

// fleet owns every process of a run so that each exit path stops them.
type fleet struct {
	mu    sync.Mutex
	procs []*proc
	bin   string // directory holding the dehealthd and dehealth-router binaries
	dir   string // the run's scratch directory (logs, datasets, slices)
}

// start launches bin/name with args, logging to the run directory.
func (f *fleet) start(label, name string, args ...string) (*proc, error) {
	return f.startPath(label, filepath.Join(f.bin, name), args...)
}

// startPath launches the program at path with args.
func (f *fleet) startPath(label, path string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(f.dir, label+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills a server whose benchmark died without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: label, cmd: cmd, log: logf, done: make(chan struct{})}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", label, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is read from the log when it matters
		close(p.done)
	}()
	f.mu.Lock()
	f.procs = append(f.procs, p)
	f.mu.Unlock()
	return p, nil
}

// run executes bin/name to completion (a one-shot tool invocation).
func (f *fleet) run(label, name string, args ...string) error {
	ctx, cancel := context.WithTimeout(context.Background(), bootTimeout)
	defer cancel()
	logf, err := os.Create(filepath.Join(f.dir, label+".log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.CommandContext(ctx, filepath.Join(f.bin, name), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w (log: %s)", label, err, tailLog(logf.Name()))
	}
	return nil
}

// stop kills p and waits until it has exited.
func (f *fleet) stop(p *proc) {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Kill() // fails only if it already exited
		<-p.done
	}
	p.log.Close()
	f.mu.Lock()
	for i, q := range f.procs {
		if q == p {
			f.procs = append(f.procs[:i], f.procs[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
}

// stopAll stops every process still running.
func (f *fleet) stopAll() {
	f.mu.Lock()
	ps := append([]*proc(nil), f.procs...)
	f.mu.Unlock()
	for _, p := range ps {
		f.stop(p)
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func (p *proc) peakRSSMB() (float64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// tailLog returns the last lines of a process log for error messages.
func tailLog(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 3 {
		lines = lines[len(lines)-3:]
	}
	return strings.Join(lines, " | ")
}

// freeAddr reserves a loopback port for a server to listen on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitFor polls check until it reports success, the process exits, or
// the boot timeout passes; it returns the moment check first succeeded.
func waitFor(p *proc, check func() bool) (time.Time, error) {
	limit := time.Now().Add(bootTimeout)
	for time.Now().Before(limit) {
		if check() {
			return time.Now(), nil
		}
		if p.exited() {
			return time.Time{}, fmt.Errorf("%s exited before answering: %s", p.name, tailLog(p.log.Name()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("%s gave no correct answer within %v", p.name, bootTimeout)
}
