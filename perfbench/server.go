package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// server is one `authdex serve` child process with default flags; only
// the store directory and the listen address are set. Its log output
// goes to /dev/null.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer spawns the server on dir and returns once /readyz answers
// 200, with the time that took.
func startServer(bin, dir string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		cmd:  exec.Command(bin, "serve", "-dir", dir, "-addr", addr),
		base: "http://" + addr,
		done: make(chan error, 1),
	}
	s.cmd.SysProcAttr = childAttr()
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(90 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("authdex serve exited before ready: %v", err)
		default:
		}
		if resp, err := probe.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop(syscall.SIGKILL)
	return nil, 0, errors.New("authdex serve not ready within 90s")
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// stop signals the server and waits until it has exited.
func (s *server) stop(sig syscall.Signal) {
	s.cmd.Process.Signal(sig)
	<-s.done
}

// measureSetup spawns and stops the server on dir n-1 times and then
// once more, returning the last server still running and the median
// time to ready.
func measureSetup(bin, dir string, n int) (*server, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		s, d, err := startServer(bin, dir)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i == n-1 {
			return s, median(times), nil
		}
		s.stop(syscall.SIGTERM)
	}
}

// client is one keep-alive connection used as a closed loop: it never
// has more than one request in flight.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// do sends one request and reads the whole answer; the duration covers
// sending until the last byte arrived.
func (c *client) do(method, path string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, d, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, b)
	}
	return b, d, nil
}

// getJSON is do for a GET whose answer decodes into out.
func (c *client) getJSON(path string, out any) (time.Duration, error) {
	b, d, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return d, fmt.Errorf("GET %s: %w", path, err)
	}
	return d, nil
}

func (c *client) close() { c.http.CloseIdleConnections() }
