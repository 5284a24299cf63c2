package main

import (
	"bytes"
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

// env is the benchmark's footprint on the machine: the checkout it builds
// from, its scratch directory, and every child process it has started.
// cleanup undoes all of it and is safe to call more than once, so every
// exit path (return, error, signal) can call it.
type env struct {
	root string // checkout root (holds cmd/mcschedd)
	work string // scratch directory inside the checkout, removed by cleanup
	bin  string // built mcschedd

	mu       sync.Mutex
	children []*daemon
}

// findRoot walks up from the working directory to the checkout that holds
// the daemon's source; the benchmark builds the commit it is run from.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "mcschedd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/mcschedd above the working directory: mcload must run inside a checkout")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "mcload")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	// One scratch directory per process, so concurrent runs do not collide
	// and a crashed run's leftovers never leak into the next.
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, work: work, bin: filepath.Join(base, "mcschedd")}, nil
}

// build compiles the daemon of the checkout under test. The go build cache
// makes every build after the first a sub-second no-op, which is what a
// user restarting the benchmark pays too.
func (e *env) build() error {
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/mcschedd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build mcschedd: %v\n%s", err, out)
	}
	return nil
}

// tempDir makes a fresh directory under the scratch directory (on the
// checkout's filesystem, which is where the journal workloads fsync).
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.work, prefix+"-")
}

// cleanup kills every child still running and removes the scratch
// directory. It reports children it had to kill: a run that ended with the
// daemon still up leaked it.
func (e *env) cleanup() (leaked int) {
	e.mu.Lock()
	children := e.children
	e.children = nil
	e.mu.Unlock()
	for _, d := range children {
		if d.running() {
			leaked++
			d.kill()
		}
	}
	os.RemoveAll(e.work)
	return leaked
}

// daemon is one mcschedd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // service address host:port
	opsAddr string
	logPath string
	done    chan struct{} // closed when the process has been waited for
}

// freeAddrs reserves n distinct loopback ports by binding them all at once
// and then releasing them (binding one after the other can hand out the
// port just released a second time).
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// start launches the daemon with the given extra flags on fresh ports and
// returns once it answers on the service address. A non-empty addr fixes
// the service address: a restarted daemon keeps the one it had.
func (e *env) start(addr string, flags ...string) (*daemon, error) {
	ports, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	opsAddr := ports[1]
	if addr == "" {
		addr = ports[0]
	}
	e.mu.Lock()
	logPath := filepath.Join(e.work, fmt.Sprintf("mcschedd-%d.log", len(e.children)+1))
	e.mu.Unlock()
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	args := append([]string{"-addr", addr, "-ops-addr", opsAddr}, flags...)
	cmd := exec.Command(e.bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// If mcload dies without running cleanup (SIGKILL, panic in a goroutine)
	// the kernel takes the daemon down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, addr: addr, opsAddr: opsAddr, logPath: logPath, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mcschedd: %w", err)
	}
	go func() {
		cmd.Wait() // exit status is irrelevant: SIGKILL is part of the plan
		close(d.done)
	}()
	e.mu.Lock()
	e.children = append(e.children, d)
	e.mu.Unlock()
	if err := d.waitReady(10 * time.Second); err != nil {
		d.kill()
		log, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("%w\n%s", err, log)
	}
	return d, nil
}

// waitReady polls the service address until the daemon answers a request.
func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if !d.running() {
			return fmt.Errorf("mcschedd exited during start-up")
		}
		c, err := dial(d.addr)
		if err == nil {
			st, _, err := c.do(buildRequest("GET", "/v1/systems", nil))
			c.close()
			if err == nil && st == 200 {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("mcschedd not ready on %s after %v", d.addr, timeout)
}

func (d *daemon) running() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks for a graceful shutdown and waits; a daemon that ignores
// SIGTERM for ten seconds is killed.
func (d *daemon) stop() {
	if !d.running() {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// kill is SIGKILL and wait: the crash the durable workload recovers from.
func (d *daemon) kill() {
	if d.running() {
		d.cmd.Process.Kill()
	}
	<-d.done
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux configuration Go supports.
const clockTick = 100

// procCPU returns user+system CPU seconds consumed so far by pid.
func procCPU(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name may contain spaces; fields restart after ") ".
	i := bytes.LastIndex(b, []byte(") "))
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(b[i+2:]))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / clockTick
}

// procPeakRSSMB returns the high-water resident set of pid in MB.
func procPeakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPU returns user+system CPU seconds consumed so far by this process.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
