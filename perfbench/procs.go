package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process the benchmark started.
type proc struct {
	name   string
	url    string
	cmd    *exec.Cmd
	exited chan struct{}
	log    string
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts bin on a fresh loopback port with args, extra environment
// and its output in logDir/name.log. The child is killed if the benchmark
// dies first.
func launch(name, bin, logDir string, env []string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logPath := filepath.Join(logDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, exited: make(chan struct{}), log: logPath}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	return p, nil
}

var pollClient = &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// waitReady polls the process's /v1/stats until it answers 200.
func (p *proc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up: %s", p.name, p.logTail())
		default:
		}
		if resp, err := pollClient.Get(p.url + "/v1/stats"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("%s did not answer within %s: %s", p.name, timeout, p.logTail())
}

// peakRSSMiB reads the process's resident-set high-water mark.
func (p *proc) peakRSSMiB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

// vmHWM reads the VmHWM line of a /proc status file, in MiB.
func vmHWM(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in " + statusPath)
}

// stop kills the process and waits until it has exited.
func (p *proc) stop() {
	p.cmd.Process.Kill()
	<-p.exited
}

func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// copyPreload gives a leaf a fresh store directory at dst: a copy of its
// preload checkpoint when the workload has one, else nothing.
func copyPreload(runDir string, leaf int, dst string) error {
	tmpl := filepath.Join(runDir, fmt.Sprintf("preload%d", leaf))
	if _, err := os.Stat(tmpl); err != nil {
		return os.RemoveAll(dst)
	}
	return copyDir(tmpl, dst)
}
