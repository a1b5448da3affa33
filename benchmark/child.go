package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// env owns everything a run leaves outside the process: one temporary
// directory (sockets, data directories, all under the checkout's
// .bench_build) and the child servers. cleanup runs on every exit path.
type env struct {
	root string // repository root, relative to the working directory
	dir  string // this run's temporary directory
	bin  string // the nvserver binary

	mu   sync.Mutex
	kids []*child
	seq  int
}

const buildDir = ".bench_build"

// findRoot locates the repository from the checkout root or from the
// benchmark directory; paths stay relative so Unix socket names stay short.
func findRoot() (string, error) {
	for _, root := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(root, "cmd", "nvserver", "main.go")); err == nil {
			return root, nil
		}
	}
	return "", errors.New("run from the repository root: cmd/nvserver not found")
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, buildDir), "r")
	if err != nil {
		return nil, err
	}
	return &env{root: root, dir: dir}, nil
}

// buildServer compiles cmd/nvserver from the checkout's source. Build time
// is excluded from every metric.
func (e *env) buildServer() error {
	bin, err := filepath.Abs(filepath.Join(e.root, buildDir, "nvserver"))
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nvserver")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/nvserver: %w\n%s", err, out)
	}
	e.bin = bin
	return nil
}

// path names a fresh file or directory inside the run's temporary directory.
func (e *env) path(kind string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	return filepath.Join(e.dir, kind+strconv.Itoa(e.seq))
}

// killAll ends every child still running and waits for each.
func (e *env) killAll() {
	e.mu.Lock()
	kids := e.kids
	e.mu.Unlock()
	for _, c := range kids {
		c.kill()
	}
}

// watchdog kills the children when a run of the given measuring time is far
// past its budget: a hung child must not hang the run, and killing it fails
// the blocked reads.
func (e *env) watchdog(seconds float64) *time.Timer {
	return time.AfterFunc(time.Duration(3*seconds+60)*time.Second, e.killAll)
}

func (e *env) cleanup() {
	e.killAll()
	os.RemoveAll(e.dir)
}

// child is one nvserver process.
type child struct {
	cmd  *exec.Cmd
	addr string
	log  tail
	done chan struct{} // closed once the process has been waited for
}

// tail keeps the last bytes a child wrote, to attach to a failure.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8<<10; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// spawn starts nvserver on a fresh Unix socket with the given extra flags
// and waits until it serves. A child that exits early or never becomes
// ready fails with its output attached.
func (e *env) spawn(flags ...string) (*child, error) {
	return e.spawnAt("unix:"+e.path("s"), flags...)
}

func (e *env) spawnAt(addr string, flags ...string) (*child, error) {
	args := append([]string{"-listen", addr, "-shards", "4", "-size", strconv.Itoa(keySpace)}, flags...)
	c := &child{cmd: exec.Command(e.bin, args...), addr: addr, done: make(chan struct{})}
	c.cmd.Stdout, c.cmd.Stderr = &c.log, &c.log
	c.cmd.SysProcAttr = childAttr()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start nvserver: %w", err)
	}
	go func() {
		c.cmd.Wait()
		close(c.done)
	}()
	e.mu.Lock()
	e.kids = append(e.kids, c)
	e.mu.Unlock()

	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-c.done:
			return nil, fmt.Errorf("nvserver %v exited before serving: %v\n%s", flags, c.cmd.ProcessState, c.log.String())
		default:
		}
		if cl, err := server.Dial(addr); err == nil {
			_, err = cl.Stats()
			cl.Close()
			if err == nil {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("nvserver %v not ready after 20s\n%s", flags, c.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to end.
func (c *child) kill() {
	c.cmd.Process.Signal(syscall.SIGKILL)
	<-c.done
}

// rssMB reads the child's resident set size.
func (c *child) rssMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	var size, resident float64
	fmt.Sscan(string(data), &size, &resident)
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (total int64) {
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
