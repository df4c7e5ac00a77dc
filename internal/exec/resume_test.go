//go:build unix

package exec

import (
	"bytes"
	"context"
	"os"
	osexec "os/exec"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"

	"lscatter/internal/store"
)

// TestResumeAfterSIGKILL is the crash half of the resume contract, with a
// real kill: a subprocess sweep is SIGKILLed after exactly K of N artifacts
// have been durably checkpointed, then the restarted (in-process) sweep
// with Resume must recompute exactly N−K and produce byte-identical
// artifacts. The subprocess is this test binary re-exec'd into
// TestKilledSweepHelper, the same harness shape tools/servedcheck uses for
// the server's crash story.
func TestResumeAfterSIGKILL(t *testing.T) {
	const n, k = 9, 4
	dir := t.TempDir()

	cmd := osexec.Command(os.Args[0], "-test.run=TestKilledSweepHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"LSCATTER_RESUME_HELPER=1",
		"LSCATTER_RESUME_DIR="+dir,
		"LSCATTER_RESUME_N="+strconv.Itoa(n),
		"LSCATTER_KILL_AFTER="+strconv.Itoa(k),
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("helper survived its own SIGKILL; output:\n%s", out)
	}
	ee, ok := err.(*osexec.ExitError)
	if !ok {
		t.Fatalf("helper failed to start: %v\n%s", err, out)
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); ok && (!ws.Signaled() || ws.Signal() != syscall.SIGKILL) {
		t.Fatalf("helper exited without SIGKILL: %v\n%s", ee, out)
	}

	// The store must hold exactly the K completed artifacts.
	st, err := store.Open(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Entries != k || got.Quarantined != 0 {
		t.Fatalf("after kill: %+v, want %d clean entries", got, k)
	}

	// The restarted sweep: resume over the same directory.
	resumed := &Checkpointed{Inner: RunFunc(pureRun), Store: st, Resume: true}
	got, err := All(context.Background(), resumed, testJobs(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	computed, restored := resumed.Stats()
	if computed != n-k || restored != k {
		t.Fatalf("resume recomputed %d and restored %d, want %d and %d", computed, restored, n-k, k)
	}
	want, err := All(context.Background(), RunFunc(pureRun), testJobs(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("job %d differs after crash resume:\n%q\nvs\n%q", i, got[i], want[i])
		}
	}
}

// TestKilledSweepHelper is the subprocess body of TestResumeAfterSIGKILL:
// it runs a sequential checkpointed sweep and SIGKILLs its own process the
// moment the (K+1)-th computation starts, so exactly K artifacts are on
// disk. It skips unless re-exec'd by the parent test.
func TestKilledSweepHelper(t *testing.T) {
	if os.Getenv("LSCATTER_RESUME_HELPER") != "1" {
		t.Skip("subprocess helper; driven by TestResumeAfterSIGKILL")
	}
	dir := os.Getenv("LSCATTER_RESUME_DIR")
	n, _ := strconv.Atoi(os.Getenv("LSCATTER_RESUME_N"))
	k, _ := strconv.Atoi(os.Getenv("LSCATTER_KILL_AFTER"))
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var started atomic.Int32
	killer := func(ctx context.Context, job Job) ([]byte, error) {
		if int(started.Add(1))-1 == k {
			// K computations have completed and checkpointed; die mid-sweep.
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable; SIGKILL is not catchable
		}
		return pureRun(ctx, job)
	}
	cp := &Checkpointed{Inner: RunFunc(killer), Store: st}
	_, _ = All(context.Background(), cp, testJobs(n), 1)
	t.Fatal("sweep finished; the kill never fired")
}
