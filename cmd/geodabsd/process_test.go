package main

// These tests drive real geodabs and geodabsd processes over loopback:
// the flag wiring, signal handling and crash recovery that in-process
// tests of the library cannot reach. Each test starts its own processes
// on ports the kernel picks and reads their addresses from the lines
// they print.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// startTimeout bounds every wait for a process to print a line or reach
// a state; race-built binaries on a loaded machine are slow to start.
const startTimeout = 30 * time.Second

// world is what every process test shares: the two binaries, built once
// per test binary (race-built when it is), and a dataset generated with
// them and indexed into a snapshot.
type world struct {
	geodabsPath, geodabsdPath string
	dataset, queries          string
	snapshot, statsOut        string // the index snapshot and the stats run that wrote it
	trajectories              int
}

var (
	worldDir   string // the binaries and the dataset; TestMain removes it
	buildWorld = sync.OnceValues(newWorld)
)

func TestMain(m *testing.M) {
	code := m.Run()
	if worldDir != "" {
		os.RemoveAll(worldDir)
	}
	os.Exit(code)
}

// setup returns the shared world, building it on first use. A missing go
// tool fails the tests rather than skipping them.
func setup(t *testing.T) *world {
	t.Helper()
	w, err := buildWorld()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func newWorld() (*world, error) {
	var err error
	if worldDir, err = os.MkdirTemp("", "geodabsd-test-"); err != nil {
		return nil, err
	}
	args := []string{"build", "-o", worldDir + string(filepath.Separator)}
	if raceEnabled {
		args = append(args, "-race")
	}
	pkgs := []string{"geodabs/cmd/geodabs", "geodabs/cmd/geodabsd"}
	if out, err := exec.Command("go", append(args, pkgs...)...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	// go test caches a passing result keyed on the test binary and the
	// files the test opened. The binaries are built from sources the
	// test binary need not import (cmd/geodabs, client), so open every
	// source directory they build from: an edit to any of them then
	// reruns these tests instead of replaying a stale pass.
	out, err := exec.Command("go", append([]string{"list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}"}, pkgs...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	for _, dir := range strings.Fields(string(out)) {
		if _, err := os.ReadDir(dir); err != nil {
			return nil, err
		}
	}

	data := filepath.Join(worldDir, "data")
	w := &world{
		geodabsPath:  filepath.Join(worldDir, "geodabs"),
		geodabsdPath: filepath.Join(worldDir, "geodabsd"),
		dataset:      filepath.Join(data, "dataset.bin"),
		queries:      filepath.Join(data, "queries.bin"),
		snapshot:     filepath.Join(worldDir, "index.snap"),
	}
	if _, err := w.run("gen", "-out", data, "-routes", "20", "-per-direction", "3", "-seed", "42"); err != nil {
		return nil, err
	}
	if w.statsOut, err = w.run("stats", "-data", w.dataset, "-snapshot", w.snapshot); err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^trajectories: *(\d+)$`).FindStringSubmatch(w.statsOut)
	if m == nil {
		return nil, fmt.Errorf("stats printed no trajectory count:\n%s", w.statsOut)
	}
	w.trajectories, err = strconv.Atoi(m[1])
	return w, err
}

// run runs the geodabs CLI to completion and returns its output.
func (w *world) run(args ...string) (string, error) {
	out, err := exec.Command(w.geodabsPath, args...).CombinedOutput()
	if err != nil {
		return string(out), fmt.Errorf("geodabs %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

// geodabs is run that fails the test on a non-zero exit.
func (w *world) geodabs(t *testing.T, args ...string) string {
	t.Helper()
	out, err := w.run(args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var hitLine = regexp.MustCompile(`(?m)^[ 0-9]+\. trajectory.*$`)

// hits keeps the ranked hit lines of a remote-query's output: the
// deterministic part, without the timings.
func hits(out string) string {
	return strings.Join(hitLine.FindAllString(out, -1), "\n")
}

// ranking is the hits of held-out queries 0 to 2, five each, through the
// geodabsd at addr.
func (w *world) ranking(t *testing.T, addr string) string {
	t.Helper()
	var all []string
	for q := 0; q < 3; q++ {
		all = append(all, hits(w.geodabs(t, "remote-query", "-addr", addr, "-queries", w.queries, "-q", strconv.Itoa(q), "-limit", "5")))
	}
	return strings.Join(all, "\n")
}

// upsert streams the whole dataset into the geodabsd at addr.
func (w *world) upsert(addr string) error {
	_, err := w.run("remote-upsert", "-addr", addr, "-data", w.dataset)
	return err
}

// churn re-upserts the dataset through addr, each pass a fresh geodabs
// process, until a pass fails (its server was killed) or stop is called.
// The same geometry under fresh epochs: whatever recovers from a kill
// mid-churn ranks like the state before it once a single torn upsert is
// healed.
func (w *world) churn(addr string) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for exec.CommandContext(ctx, w.geodabsPath, "remote-upsert", "-addr", addr, "-data", w.dataset).Run() == nil {
		}
	}()
	return func() { cancel(); <-done }
}

// proc is a running process whose combined output the test reads.
type proc struct {
	cmd  *exec.Cmd
	out  syncBuffer
	done chan struct{} // closed once the process has exited and err is set
	err  error
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// start starts bin; the test's cleanup SIGKILLs it and, if the test
// failed, logs its output.
func start(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.err = p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() {
		p.signal(syscall.SIGKILL)
		<-p.done
		if t.Failed() {
			t.Logf("%s %s:\n%s", filepath.Base(bin), strings.Join(args, " "), p.out.String())
		}
	})
	return p
}

func (p *proc) signal(sig syscall.Signal) {
	p.cmd.Process.Signal(sig) // fails only once the process is gone
}

// kill SIGKILLs the process and waits until it is gone.
func (p *proc) kill() {
	p.signal(syscall.SIGKILL)
	<-p.done
}

// line waits for the process to print a line matching re and returns the
// first submatch. It fails the test if the process exits first.
func (p *proc) line(t *testing.T, re string) string {
	t.Helper()
	rx := regexp.MustCompile("(?m)" + re)
	for deadline := time.Now().Add(startTimeout); ; time.Sleep(20 * time.Millisecond) {
		exited := false
		select {
		case <-p.done:
			exited = true // the output is complete: one last look
		default:
		}
		if m := rx.FindStringSubmatch(p.out.String()); m != nil {
			return m[1]
		}
		if exited || time.Now().After(deadline) {
			t.Fatalf("%s never printed a line matching %q (exited: %v)", filepath.Base(p.cmd.Path), re, p.err)
		}
	}
}

// geodabsd starts geodabsd on kernel-picked ports with the given backend
// flags and returns it with its service address and metrics URL.
func (w *world) geodabsd(t *testing.T, flags ...string) (p *proc, addr, metricsURL string) {
	t.Helper()
	p = start(t, w.geodabsdPath, append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, flags...)...)
	return p, p.line(t, `^geodabsd listening on (\S+)$`), p.line(t, `^metrics on (\S+)$`)
}

// durableNode starts a WAL-backed shard node (geodabs serve -wal-dir) at
// addr and returns it with the address it listens on.
func (w *world) durableNode(t *testing.T, addr, walDir string) (*proc, string) {
	t.Helper()
	p := start(t, w.geodabsPath, "serve", "-addr", addr, "-wal-dir", walDir)
	return p, p.line(t, `^durable shard node listening on ([^,]+),`)
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
	}
	return string(body)
}

// clusterFamilies are the metric families geodabsd exports for a
// cluster backend, with their types. The replica-lag family appears only
// with replicas and is checked where there are some.
var clusterFamilies = []struct{ name, typ string }{
	{"geodabsd_cluster_stats_errors_total", "counter"},
	{"geodabsd_node_epoch", "gauge"},
	{"geodabsd_node_wal_bytes", "gauge"},
	{"geodabsd_node_wal_segments", "gauge"},
	{"geodabsd_node_wal_fsyncs_total", "counter"},
	{"geodabsd_node_wal_last_fsync_seconds", "gauge"},
	{"geodabsd_node_full_syncs_total", "counter"},
	{"geodabsd_node_replica_subscribers", "gauge"},
	{"geodabsd_node_retained_points", "gauge"},
	{"geodabsd_node_retained_bytes", "gauge"},
	{"geodabsd_node_rerank_scored_total", "counter"},
	{"geodabsd_node_rerank_lb_skipped_total", "counter"},
}

// checkFamily fails the test unless metrics declares the family with
// its HELP and TYPE lines and carries a sample of it.
func checkFamily(t *testing.T, metrics, name, typ string) {
	t.Helper()
	rx := regexp.MustCompile(`(?m)^# HELP ` + name + ` .+\n# TYPE ` + name + ` ` + typ + `\n` + name + `[{ ]`)
	if !rx.MatchString(metrics) {
		t.Errorf("metrics lack the %s %s family", typ, name)
	}
}

// TestSnapshotService serves a geodabs stats snapshot through geodabsd:
// fingerprint and raw queries, a delete and the re-upsert that restores
// it, the request counters on /metrics, and a clean drain on SIGTERM.
func TestSnapshotService(t *testing.T) {
	t.Parallel()
	w := setup(t)
	if !regexp.MustCompile(`(?m)^snapshot:`).MatchString(w.statsOut) {
		t.Fatalf("stats wrote no snapshot:\n%s", w.statsOut)
	}
	srv, addr, metricsURL := w.geodabsd(t, "-snapshot", w.snapshot, "-drain-timeout", "10s")
	query := func(extra ...string) string {
		return w.geodabs(t, append([]string{"remote-query", "-addr", addr, "-queries", w.queries, "-q", "0", "-limit", "5"}, extra...)...)
	}

	fp := query()
	for name, out := range map[string]string{"fingerprint": fp, "raw": query("-raw")} {
		if !strings.Contains(out, "dJ=") {
			t.Fatalf("%s query returned no hits:\n%s", name, out)
		}
	}

	// Delete the query's best hit, then restore the dataset: the victim
	// comes from the server's own ranking.
	m := regexp.MustCompile(`(?m)^ 1\. trajectory +(\d+) `).FindStringSubmatch(fp)
	if m == nil {
		t.Fatalf("no top hit in:\n%s", fp)
	}
	ranked := regexp.MustCompile(`(?m)trajectory +` + m[1] + ` `)
	if out := w.geodabs(t, "remote-delete", "-addr", addr, m[1]); !strings.HasPrefix(out, "deleted 1 of 1") {
		t.Fatalf("delete of %s did not apply:\n%s", m[1], out)
	}
	if out := query(); ranked.MatchString(out) {
		t.Fatalf("deleted trajectory %s still ranked:\n%s", m[1], out)
	}
	// Five passes of sequential upserts on pooled connections, each call's
	// context cancelled the moment it returns: cross-process churn for
	// the client's cancellation poke, which must never poison a pooled
	// connection.
	for pass := 0; pass < 5; pass++ {
		if out := w.geodabs(t, "remote-upsert", "-addr", addr, "-data", w.dataset); !strings.HasPrefix(out, "upserted") {
			t.Fatalf("upsert pass %d did not apply:\n%s", pass, out)
		}
	}
	if out := query(); !ranked.MatchString(out) {
		t.Fatalf("restored trajectory %s not ranked again:\n%s", m[1], out)
	}

	metrics := scrape(t, metricsURL)
	for _, op := range []string{"search_fp", "delete"} {
		if counter := `geodabsd_requests_total{op="` + op + `",status="ok"}`; !strings.Contains(metrics, counter) {
			t.Errorf("metrics lack %s", counter)
		}
	}

	srv.signal(syscall.SIGTERM)
	select {
	case <-srv.done:
	case <-time.After(15 * time.Second):
		t.Fatal("geodabsd did not exit within 15s of SIGTERM")
	}
	if srv.err != nil {
		t.Fatalf("geodabsd exited with %v after SIGTERM, want 0", srv.err)
	}
	if !strings.Contains(srv.out.String(), "drained cleanly") {
		t.Fatal("geodabsd did not log a clean drain")
	}
}

// TestWALBackendSurvivesSIGKILL kills a -wal-dir geodabsd mid-churn and
// restarts it on the same directory: the log carries every trajectory
// but at most the one upsert torn by the kill, and once that is healed
// the rankings are the pre-kill ones byte for byte.
func TestWALBackendSurvivesSIGKILL(t *testing.T) {
	t.Parallel()
	w := setup(t)
	walDir := t.TempDir()
	srv, addr, metricsURL := w.geodabsd(t, "-wal-dir", walDir)
	if err := w.upsert(addr); err != nil {
		t.Fatal(err)
	}
	before := w.ranking(t, addr)
	if before == "" {
		t.Fatal("reference queries returned no hits")
	}
	metrics := scrape(t, metricsURL)
	for _, f := range clusterFamilies {
		checkFamily(t, metrics, f.name, f.typ)
	}

	stop := w.churn(addr)
	time.Sleep(time.Second)
	srv.kill()
	stop()

	srv, addr, _ = w.geodabsd(t, "-wal-dir", walDir)
	node := srv.line(t, `^serving embedded durable shard node ([^,]+),`)
	stats := w.geodabs(t, "stats", "-nodes", node)
	m := regexp.MustCompile(`docs=(\d+)`).FindStringSubmatch(stats)
	if m == nil {
		t.Fatalf("no doc count in:\n%s", stats)
	}
	if docs, _ := strconv.Atoi(m[1]); docs < w.trajectories-1 {
		t.Fatalf("recovered %d of %d trajectories from the WAL", docs, w.trajectories)
	}
	if err := w.upsert(addr); err != nil {
		t.Fatal(err)
	}
	if after := w.ranking(t, addr); after != before {
		t.Fatalf("rankings after the restart differ from before the kill:\n%s\n--- want ---\n%s", after, before)
	}
}

// TestReplicaFrontRanksLikePrimary puts a durable primary and its
// log-shipped replica (geodabs serve -replica-of) behind two fronts: one
// reads from the replica, the other, started after the ingest, from the
// primary through a directory recovered from the primary's durable state.
// At replica lag 0 they rank identically.
func TestReplicaFrontRanksLikePrimary(t *testing.T) {
	t.Parallel()
	w := setup(t)
	_, primary := w.durableNode(t, "127.0.0.1:0", t.TempDir())
	rep := start(t, w.geodabsPath, "serve", "-addr", "127.0.0.1:0", "-replica-of", primary)
	replica := rep.line(t, `^read replica of \S+ listening on (\S+)`)

	_, viaReplica, metricsURL := w.geodabsd(t, "-nodes", primary, "-replicas", replica, "-read-from", "replicas")
	if err := w.upsert(viaReplica); err != nil {
		t.Fatal(err)
	}
	_, viaPrimary, _ := w.geodabsd(t, "-nodes", primary)

	caughtUp := regexp.MustCompile(`(?m)^geodabsd_replica_epoch_lag\{.*\} 0$`)
	for deadline := time.Now().Add(startTimeout); ; time.Sleep(50 * time.Millisecond) {
		metrics := scrape(t, metricsURL)
		if caughtUp.MatchString(metrics) {
			checkFamily(t, metrics, "geodabsd_replica_epoch_lag", "gauge")
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached epoch lag 0:\n%s", metrics)
		}
	}
	got, want := w.ranking(t, viaReplica), w.ranking(t, viaPrimary)
	if got == "" {
		t.Fatal("replica-routed queries returned no hits")
	}
	if got != want {
		t.Fatalf("replica-routed ranking differs from primary-routed:\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRetainedPointsSurviveNodeSIGKILL fronts two durable nodes with a
// -retain-points geodabsd, SIGKILLs one node mid-churn and restarts it
// from its WAL on the same address: the node-side -rerank dtw ranking
// comes back, so the retained raw points came back through replay.
func TestRetainedPointsSurviveNodeSIGKILL(t *testing.T) {
	t.Parallel()
	w := setup(t)
	_, n0 := w.durableNode(t, "127.0.0.1:0", t.TempDir())
	n1WAL := t.TempDir()
	node1, n1 := w.durableNode(t, "127.0.0.1:0", n1WAL)
	_, addr, metricsURL := w.geodabsd(t, "-nodes", n0+","+n1, "-retain-points")
	if err := w.upsert(addr); err != nil {
		t.Fatal(err)
	}
	rerank := func() (string, error) {
		out, err := w.run("remote-query", "-addr", addr, "-queries", w.queries, "-q", "0", "-limit", "5", "-rerank", "dtw")
		return hits(out), err
	}
	before, err := rerank()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(before, "dtw m=") {
		t.Fatalf("rerank not scored in meters:\n%s", before)
	}
	if !regexp.MustCompile(`(?m)^geodabsd_node_retained_points\{.*\} [1-9]`).MatchString(scrape(t, metricsURL)) {
		t.Fatal("metrics report no retained points after the ingest")
	}

	stop := w.churn(addr)
	time.Sleep(time.Second)
	node1.kill()
	stop()
	w.durableNode(t, n1, n1WAL)

	// Heal the torn upsert, if any; retries ride out the front's pooled
	// connections to the dead node.
	var after string
	for deadline := time.Now().Add(startTimeout); ; time.Sleep(200 * time.Millisecond) {
		if err = w.upsert(addr); err == nil {
			if after, err = rerank(); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("rerank never succeeded after the node restart: %v", err)
		}
	}
	if after != before {
		t.Fatalf("rerank ranking after the restart differs from before the kill:\n%s\n--- want ---\n%s", after, before)
	}
}

// TestFlagsOutsideTheirBackendRefused checks that geodabsd refuses a flag its
// backend would ignore, naming it, before it serves anything.
func TestFlagsOutsideTheirBackendRefused(t *testing.T) {
	t.Parallel()
	w := setup(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-replicas", []string{"-wal-dir", dir, "-replicas", "127.0.0.1:1"}},
		{"-read-from", []string{"-snapshot", w.snapshot, "-read-from", "replicas"}},
		{"-retain-points", []string{"-snapshot", w.snapshot, "-retain-points"}},
	} {
		// A geodabsd that accepts the flag serves until killed.
		ctx, cancel := context.WithTimeout(context.Background(), startTimeout)
		out, err := exec.CommandContext(ctx, w.geodabsdPath, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...).CombinedOutput()
		served := ctx.Err() != nil
		cancel()
		var exit *exec.ExitError
		if served || !errors.As(err, &exit) || !strings.Contains(string(out), tc.flag) {
			t.Errorf("geodabsd %v: %v, output %q; want a non-zero exit naming %s", tc.args, err, out, tc.flag)
		}
	}
}
