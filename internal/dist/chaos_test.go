package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sttsim/internal/campaign"
	api "sttsim/pkg/sttsim"
)

// TestChaosKillWorkerMidJob is the robustness acceptance test, run against
// real processes: a coordinator with three workers takes a multi-second job;
// the worker holding the lease is SIGKILLed mid-run; the lease expires and
// the job is re-delivered to a surviving worker; the submitting client
// observes no error and receives bytes identical to what a standalone daemon
// serves for the same spec. The journal must show the re-delivery (two lease
// epochs) and exactly one terminal record.
func TestChaosKillWorkerMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test builds binaries and runs multi-second jobs; skipped in -short")
	}

	bin := buildDaemon(t)
	// Big enough that the kill lands mid-run (~2s of simulation), small
	// enough to keep the test tight.
	const spec = `{"scheme":"stt4","bench":"milc","seed":11,"warmup_cycles":20000,"measure_cycles":250000}`

	// Phase 1: standalone reference bytes for the same spec.
	refAddr := freeAddr(t)
	standalone := startProc(t, "standalone", bin, "-mode", "standalone", "-addr", refAddr)
	waitHealthy(t, refAddr)
	refID := submitJob(t, refAddr, spec)
	waitDone(t, refAddr, refID, 2*time.Minute)
	refBytes := getResult(t, refAddr, refID)
	stopProc(t, standalone)

	// Phase 2: coordinator + 3 workers.
	addr := freeAddr(t)
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	coord := startProc(t, "coordinator", bin,
		"-mode", "coordinator", "-addr", addr,
		"-lease-timeout", "2s", "-checkpoint", journal)
	defer stopProc(t, coord)
	waitHealthy(t, addr)

	workers := map[string]*exec.Cmd{}
	for _, id := range []string{"w1", "w2", "w3"} {
		workers[id] = startProc(t, id, bin,
			"-mode", "worker", "-coordinator", "http://"+addr,
			"-worker-id", id, "-heartbeat-interval", "300ms", "-lease-wait", "500ms")
	}
	defer func() {
		for _, w := range workers {
			if w != nil {
				stopProc(t, w)
			}
		}
	}()
	waitReady(t, addr)

	jobID := submitJob(t, addr, spec)

	// Find the lease holder and SIGKILL it mid-job.
	holder := waitLeaseHolder(t, addr)
	t.Logf("SIGKILLing lease holder %s", holder)
	victim := workers[holder]
	if victim == nil {
		t.Fatalf("lease holder %q is not one of ours", holder)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()
	workers[holder] = nil

	// The client sees an ordinary completion: re-delivered within a lease
	// timeout, finished by a survivor, zero errors surfaced.
	st := waitDone(t, addr, jobID, 2*time.Minute)
	if st.Error != "" {
		t.Fatalf("client saw error %q after worker kill", st.Error)
	}
	gotBytes := getResult(t, addr, jobID)
	if !bytes.Equal(refBytes, gotBytes) {
		t.Fatalf("distributed result differs from standalone reference (%d vs %d bytes)",
			len(refBytes), len(gotBytes))
	}

	stats := getStats(t, addr)
	if stats.Dist == nil || stats.Dist.Redelivered < 1 {
		t.Fatalf("stats.dist = %+v, want redelivered >= 1", stats.Dist)
	}
	if stats.Dist.Completed != 1 {
		t.Fatalf("completed = %d, want 1", stats.Dist.Completed)
	}

	// Journal: one lease record per delivery (ascending epochs from 1) and
	// exactly one terminal ok record.
	stopProc(t, coord)
	var leaseEpochs []uint64
	terminal := 0
	recs, dropped, err := campaign.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("journal dropped %d corrupt line(s), want 0 after a graceful stop", dropped)
	}
	for _, rec := range recs {
		switch rec.Status {
		case campaign.StatusLeased:
			leaseEpochs = append(leaseEpochs, rec.Epoch)
		case campaign.StatusOK, campaign.StatusFailed:
			terminal++
		}
	}
	if len(leaseEpochs) < 2 || leaseEpochs[0] != 1 {
		t.Fatalf("lease epochs = %v, want at least [1 2]", leaseEpochs)
	}
	for i := 1; i < len(leaseEpochs); i++ {
		if leaseEpochs[i] != leaseEpochs[i-1]+1 {
			t.Fatalf("lease epochs = %v, want consecutive", leaseEpochs)
		}
	}
	if terminal != 1 {
		t.Fatalf("terminal journal records = %d, want exactly 1", terminal)
	}
}

// buildDaemon compiles cmd/sttsimd once into the test's temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sttsimd")
	cmd := exec.Command("go", "build", "-o", bin, "sttsim/cmd/sttsimd")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build sttsimd: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a localhost port and returns host:port. The listener is
// closed before use — a small race, harmless in practice.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startProc launches one daemon process, streaming its stderr into the test
// log.
func startProc(t *testing.T, name, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			t.Logf("[%s] %s", name, sc.Text())
		}
	}()
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// stopProc SIGTERMs a process and waits for a graceful exit.
func stopProc(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if cmd.Process == nil {
		return
	}
	if cmd.ProcessState != nil {
		return // already reaped
	}
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Error("process did not exit within 30s of SIGTERM")
	}
}

func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	waitHTTP(t, "http://"+addr+"/v1/healthz/live", http.StatusOK)
}

func waitReady(t *testing.T, addr string) {
	t.Helper()
	waitHTTP(t, "http://"+addr+"/v1/healthz/ready", http.StatusOK)
}

func waitHTTP(t *testing.T, url string, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never answered %d", url, want)
}

type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

func submitJob(t *testing.T, addr, spec string) string {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

func waitDone(t *testing.T, addr, id string, timeout time.Duration) jobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/v1/jobs/" + id)
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil {
			switch st.State {
			case "done":
				return st
			case "failed", "cancelled":
				t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s never finished within %s", id, timeout)
	return jobStatus{}
}

func getResult(t *testing.T, addr, id string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d (%s)", resp.StatusCode, body)
	}
	return body
}

// statsPayload is the slice of /v1/stats the chaos test reads.
type statsPayload struct {
	Dist *api.DistStats `json:"dist"`
}

func getStats(t *testing.T, addr string) statsPayload {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsPayload
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitLeaseHolder polls /v1/stats until some worker holds a lease, and
// returns its ID.
func waitLeaseHolder(t *testing.T, addr string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStats(t, addr)
		if st.Dist != nil {
			for _, w := range st.Dist.Workers {
				if w.Lease != "" {
					return w.ID
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("no worker ever held a lease")
	return ""
}
