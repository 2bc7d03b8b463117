package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one rankserve child process listening on loopback.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer runs rankserve with its default settings on a free loopback
// port and returns once it accepts requests. env adds to the inherited
// environment. The child is killed if the benchmark dies first.
func startServer(bin string, env ...string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rankserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "rankserve: listening on "); ok {
				addr <- rest
			}
		}
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = a
		return s, nil
	case err := <-s.done:
		return nil, fmt.Errorf("rankserve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("rankserve did not start listening within 30s")
	}
}

// stop asks the server to drain, kills it if it does not exit, and waits
// until the process has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// procStatusMB reads one kB-valued field of a process's /proc status, such
// as "VmRSS:" or "VmHWM:", in MB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// newClient returns an HTTP client that keeps at most one connection per
// benchmark client open to the server.
func newClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// do sends one request and returns the response body; any status outside
// 2xx is an error.
func do(ctx context.Context, c *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s %s response: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// serverCache reads the shared distance cache's counters from GET /stats.
func serverCache(c *http.Client, base string) (hits, misses int64, err error) {
	b, err := do(context.Background(), c, "GET", base+"/stats", nil)
	if err != nil {
		return 0, 0, err
	}
	var st struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, 0, fmt.Errorf("decoding /stats: %w", err)
	}
	return st.Cache.Hits, st.Cache.Misses, nil
}
