// Command servedcheck is the make served-check smoke driver: it builds
// nothing itself, but launches an already-built lscatter-served binary on an
// ephemeral port and exercises the service end to end over real TCP. It is
// the one gate that proves the shipped binary — flags, listener, signal
// handling, on-disk state — works outside the httptest harness.
//
// Three phases run back to back:
//
//  1. Bad flags: -workers 0 must be a usage error — exit status 2 without
//     ever printing the listening banner.
//  2. Graceful: memory-only server; healthz, submit, poll, fetch results,
//     metrics, then SIGTERM must drain and exit 0.
//  3. Durable: server with -artifact-dir; run a spec (one disk probe, one
//     disk write), SIGKILL the process (the crash), restart over the same
//     directory, and require the resubmission to be a disk-served cache hit
//     with a byte-identical body and zero recompute.
//
// Usage: servedcheck -bin bin/lscatter-served
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

func main() {
	bin := flag.String("bin", "bin/lscatter-served", "path to the lscatter-served binary")
	flag.Parse()
	if err := runBadFlags(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "servedcheck: FAIL (bad flags): %v\n", err)
		os.Exit(1)
	}
	if err := runGraceful(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "servedcheck: FAIL (graceful): %v\n", err)
		os.Exit(1)
	}
	if err := runDurable(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "servedcheck: FAIL (durable): %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servedcheck: OK")
}

// server is one launched lscatter-served process plus its base URL.
type server struct {
	cmd  *exec.Cmd
	base string
}

// launch starts the binary with the standard smoke flags plus extra, and
// waits for the health endpoint.
func launch(bin string, extra ...string) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain", "10s"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}

	// The server prints its bound address as the first stdout line.
	base, err := readBaseURL(stdout)
	if err != nil {
		cmd.Process.Kill()
		return nil, err
	}
	go io.Copy(io.Discard, stdout) // keep draining so the server never blocks on stdout

	if err := waitHealthy(base, 5*time.Second); err != nil {
		cmd.Process.Kill()
		return nil, err
	}
	return &server{cmd: cmd, base: base}, nil
}

// sigterm sends SIGTERM and requires a clean exit within 15s.
func (s *server) sigterm() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("sigterm: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server exited uncleanly after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(15 * time.Second):
		return fmt.Errorf("server did not exit within 15s of SIGTERM")
	}
}

// sigkill is the crash: no drain, no goodbye.
func (s *server) sigkill() error {
	if err := s.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("sigkill: %w", err)
	}
	s.cmd.Wait() // reap; a killed process reports an error by design
	return nil
}

// submitDoc is the slice of the POST /v1/runs response the driver needs.
type submitDoc struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	CacheHit   bool   `json:"cache_hit"`
	ResultsURL string `json:"results_url"`
	StatusURL  string `json:"status_url"`
}

func (s *server) submit(spec string) (submitDoc, error) {
	resp, err := http.Post(s.base+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		return submitDoc{}, fmt.Errorf("submit: %w", err)
	}
	var sub submitDoc
	if err := decodeInto(resp, http.StatusAccepted, &sub); err != nil {
		return submitDoc{}, fmt.Errorf("submit: %w", err)
	}
	return sub, nil
}

// awaitDone polls a run to completion.
func (s *server) awaitDone(sub submitDoc) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(s.base + sub.StatusURL)
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := decodeInto(resp, http.StatusOK, &st); err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if st.State == "done" {
			return nil
		}
		if st.State == "failed" || st.State == "canceled" {
			return fmt.Errorf("run %s ended %s: %s", sub.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("run %s still %s after 15s", sub.ID, st.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// resultsBody fetches the finished result body verbatim.
func (s *server) resultsBody(sub submitDoc) ([]byte, error) {
	resp, err := http.Get(s.base + sub.ResultsURL)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("results: status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// metricsDoc is the slice of /metricsz the driver asserts on.
type metricsDoc struct {
	Jobs struct {
		Submitted int `json:"submitted"`
		Computed  int `json:"computed"`
		DiskHits  int `json:"disk_hits"`
	} `json:"jobs"`
	Disk *struct {
		Hits        int `json:"hits"`
		Misses      int `json:"misses"`
		Puts        int `json:"puts"`
		Quarantined int `json:"quarantined"`
	} `json:"disk"`
}

func (s *server) metrics() (metricsDoc, error) {
	resp, err := http.Get(s.base + "/metricsz")
	if err != nil {
		return metricsDoc{}, fmt.Errorf("metricsz: %w", err)
	}
	var met metricsDoc
	if err := decodeInto(resp, http.StatusOK, &met); err != nil {
		return metricsDoc{}, fmt.Errorf("metricsz: %w", err)
	}
	return met, nil
}

// runBadFlags is phase 1: a flag value the server would otherwise replace
// with a default must stop it with a usage error before it listens.
func runBadFlags(bin string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-workers", "0")
	stdout, err := cmd.Output()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		return fmt.Errorf("-workers 0: want exit status 2, got %v", err)
	}
	if bytes.Contains(stdout, []byte("listening on")) {
		return fmt.Errorf("-workers 0: server listened before refusing: %q", stdout)
	}
	fmt.Println("servedcheck: -workers 0 refused with exit status 2")
	return nil
}

// runGraceful is phase 2: the original memory-only smoke.
func runGraceful(bin string) error {
	srv, err := launch(bin)
	if err != nil {
		return err
	}
	defer srv.cmd.Process.Kill()

	sub, err := srv.submit(`{"venue":"home","tags":2,"seed":424242}`)
	if err != nil {
		return err
	}
	if err := srv.awaitDone(sub); err != nil {
		return err
	}
	body, err := srv.resultsBody(sub)
	if err != nil {
		return err
	}
	var doc struct {
		Result struct {
			Tags       int `json:"tags"`
			SyncedTags int `json:"synced_tags"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if doc.Result.Tags != 2 {
		return fmt.Errorf("results report %d tags, want 2", doc.Result.Tags)
	}
	fmt.Printf("servedcheck: run %s done, %d/%d tags synced\n",
		sub.ID, doc.Result.SyncedTags, doc.Result.Tags)

	met, err := srv.metrics()
	if err != nil {
		return err
	}
	if met.Jobs.Submitted != 1 || met.Jobs.Computed != 1 {
		return fmt.Errorf("metricsz counters: %+v", met.Jobs)
	}
	if met.Disk != nil {
		return fmt.Errorf("memory-only server reports disk stats: %+v", met.Disk)
	}

	// Graceful shutdown: SIGTERM must drain and exit 0.
	return srv.sigterm()
}

// runDurable is phase 3: crash with SIGKILL, restart over the same artifact
// directory, and require a byte-identical zero-recompute disk hit.
func runDurable(bin string) error {
	dir, err := os.MkdirTemp("", "servedcheck-artifacts-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const spec = `{"venue":"home","tags":2,"seed":777777}`

	srv1, err := launch(bin, "-artifact-dir", dir)
	if err != nil {
		return err
	}
	defer srv1.cmd.Process.Kill()
	sub1, err := srv1.submit(spec)
	if err != nil {
		return err
	}
	if err := srv1.awaitDone(sub1); err != nil {
		return err
	}
	body1, err := srv1.resultsBody(sub1)
	if err != nil {
		return err
	}
	// One computed run costs one disk probe (Submit's miss) and one write.
	met1, err := srv1.metrics()
	if err != nil {
		return err
	}
	if met1.Disk == nil || met1.Disk.Misses != 1 || met1.Disk.Puts != 1 {
		return fmt.Errorf("computed-run disk stats want 1 miss, 1 put: %+v", met1.Disk)
	}
	// The crash. No drain: whatever is durable must already be on disk.
	if err := srv1.sigkill(); err != nil {
		return err
	}
	fmt.Printf("servedcheck: killed pid %d with artifacts in %s\n", srv1.cmd.Process.Pid, dir)

	srv2, err := launch(bin, "-artifact-dir", dir)
	if err != nil {
		return fmt.Errorf("restart over crashed artifact dir: %w", err)
	}
	defer srv2.cmd.Process.Kill()
	sub2, err := srv2.submit(spec)
	if err != nil {
		return err
	}
	if !sub2.CacheHit || sub2.State != "done" {
		return fmt.Errorf("restarted submission not served from disk: %+v", sub2)
	}
	body2, err := srv2.resultsBody(sub2)
	if err != nil {
		return err
	}
	if !bytes.Equal(body1, body2) {
		return fmt.Errorf("restart served different bytes: %d vs %d bytes", len(body1), len(body2))
	}
	met, err := srv2.metrics()
	if err != nil {
		return err
	}
	if met.Jobs.DiskHits < 1 || met.Jobs.Computed != 0 {
		return fmt.Errorf("restart metrics want >=1 disk hit, 0 computed: %+v", met.Jobs)
	}
	if met.Disk == nil || met.Disk.Hits < 1 {
		return fmt.Errorf("restart disk stats: %+v", met.Disk)
	}
	fmt.Printf("servedcheck: restart served run %s byte-identical from disk (0 recomputed)\n", sub2.ID)

	return srv2.sigterm()
}

func readBaseURL(stdout io.Reader) (string, error) {
	sc := bufio.NewScanner(stdout)
	lineCh := make(chan string, 1)
	go func() {
		if sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	select {
	case line, ok := <-lineCh:
		if !ok {
			return "", fmt.Errorf("server exited before printing its address")
		}
		const marker = "listening on "
		i := strings.Index(line, marker)
		if i < 0 {
			return "", fmt.Errorf("unexpected banner %q", line)
		}
		return strings.TrimSpace(line[i+len(marker):]), nil
	case <-time.After(10 * time.Second):
		return "", fmt.Errorf("server did not print its address within 10s")
	}
}

func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz not ready within %s", timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func decodeInto(resp *http.Response, wantStatus int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("status %d (want %d): %s", resp.StatusCode, wantStatus, body)
	}
	return json.Unmarshal(body, v)
}
