//go:build unix

package experiments

import (
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
// with resume must recompute exactly N−K and produce identical results.
// The subprocess is this test binary re-exec'd into TestKilledSweepHelper,
// the same harness shape tools/servedcheck uses for the server's crash
// story.
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
	st := openStore(t, dir)
	if got := st.Stats(); got.Entries != k || got.Quarantined != 0 {
		t.Fatalf("after kill: %+v, want %d clean entries", got, k)
	}

	// The restarted sweep: resume over the same directory.
	got, cs, err := runCheckpointed(context.Background(), fakeJobs(n), fakeRun, 2, st, true)
	if err != nil {
		t.Fatal(err)
	}
	if cs != (CheckpointStats{Computed: n - k, Restored: k}) {
		t.Fatalf("resume: %+v, want %d computed and %d restored", cs, n-k, k)
	}
	want, err := runJobs(context.Background(), fakeJobs(n), fakeRun, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRenders(t, got, want)
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
	killer := func(j job, worker int) (*Result, error) {
		if int(started.Add(1))-1 == k {
			// K computations have completed and checkpointed; die mid-sweep.
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable; SIGKILL is not catchable
		}
		return fakeRun(j, worker)
	}
	_, _, _ = runCheckpointed(context.Background(), fakeJobs(n), killer, 1, st, false)
	t.Fatal("sweep finished; the kill never fired")
}
