package obsserve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/obs"
)

func startServer(t *testing.T) (*Server, *harness.Tracker, string) {
	t.Helper()
	tr := harness.NewTracker()
	srv := New(tr)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, tr, "http://" + addr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestProgressEndpoint(t *testing.T) {
	_, tr, base := startServer(t)
	tr.Begin("campaign", []harness.CellDecl{
		{Name: "CG/baseline", Units: 2},
		{Name: "CG/ilan", Units: 2},
	})
	tr.UnitDone(0, 0, nil, nil, nil)

	code, body := get(t, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var p harness.ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("progress is not JSON: %v\n%s", err, body)
	}
	if p.UnitsTotal != 4 || p.UnitsDone != 1 || p.CellsTotal != 2 {
		t.Fatalf("progress = %+v", p)
	}

	tr.UnitDone(0, 1, nil, nil, nil)
	tr.UnitDone(1, 0, nil, nil, nil)
	tr.UnitDone(1, 1, nil, nil, nil)
	tr.Finish(nil)
	_, body = get(t, base+"/progress")
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Finished || p.CellsDone != p.CellsTotal {
		t.Fatalf("terminal progress = %+v", p)
	}
}

// exposition parses a Prometheus text body into each family's declared
// type and each sample's value, failing on a family typed twice or a line
// that is neither.
func exposition(t *testing.T, body string) (types, samples map[string]string) {
	t.Helper()
	types, samples = map[string]string{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			if _, dup := types[f[2]]; dup {
				t.Fatalf("family %s typed twice:\n%s", f[2], body)
			}
			types[f[2]] = f[3]
		case len(f) == 2 && f[0] != "#":
			samples[f[0]] = f[1]
		default:
			t.Fatalf("malformed exposition line %q:\n%s", line, body)
		}
	}
	return types, samples
}

func TestMetricsEndpoint(t *testing.T) {
	_, tr, base := startServer(t)
	tr.Begin("campaign", []harness.CellDecl{{Name: "CG/ilan", Units: 2}})

	// Before any rep lands the endpoint still serves valid text with the
	// campaign meta series.
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	types, samples := exposition(t, body)
	if samples["ilan_campaign_units_total"] != "2" || types["ilan_campaign_units_total"] != "counter" ||
		types["ilan_campaign_cells_total"] != "gauge" {
		t.Fatalf("meta series missing:\n%s", body)
	}

	run := obs.NewRun(obs.Options{})
	run.Add("taskrt_steals_local_total", 5)
	attr := &obs.AttrSnapshot{Runs: 1, Task: obs.TaskAttr{Tasks: 7, ElapsedSec: 0.5}}
	tr.UnitDone(0, 0, run.Snapshot(), attr, nil)

	_, body = get(t, base+"/metrics")
	types, samples = exposition(t, body)
	for name, want := range map[string][2]string{
		"taskrt_steals_local_total":            {"counter", "5"},
		"ilan_attr_tasks_total":                {"counter", "7"},
		"ilan_attr_task_elapsed_seconds_total": {"gauge", "0.5"},
		"ilan_campaign_units_done":             {"counter", "1"},
	} {
		if types[name] != want[0] || samples[name] != want[1] {
			t.Fatalf("%s: type %q value %q, want %s %s:\n%s",
				name, types[name], samples[name], want[0], want[1], body)
		}
	}
}

// The campaign cache counters must appear on /metrics exactly when a cache
// is attached — and never otherwise, so cache-less scrapes stay identical
// to previous releases.
func TestMetricsEndpointCacheSeries(t *testing.T) {
	_, tr, base := startServer(t)
	tr.Begin("campaign", []harness.CellDecl{{Name: "CG/ilan", Units: 1}})

	_, body := get(t, base+"/metrics")
	if strings.Contains(body, "ilan_campaign_cache_") {
		t.Fatalf("cache series served without a cache:\n%s", body)
	}

	cc, err := cellcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.AttachCache(cc)
	cc.Get("0000000000000000000000000000000000000000000000000000000000000000") // one miss
	if err := cc.Put(
		"1111111111111111111111111111111111111111111111111111111111111111",
		[]byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := cc.Get("1111111111111111111111111111111111111111111111111111111111111111"); !ok {
		t.Fatal("put entry not readable")
	}

	_, body = get(t, base+"/metrics")
	types, samples := exposition(t, body)
	for name, want := range map[string]string{
		"ilan_campaign_cache_hits_total":      "1",
		"ilan_campaign_cache_misses_total":    "1",
		"ilan_campaign_cache_evictions_total": "0",
		"ilan_campaign_cache_errors_total":    "0",
	} {
		if types[name] != "counter" || samples[name] != want {
			t.Fatalf("%s: type %q value %q, want counter %s:\n%s", name, types[name], samples[name], want, body)
		}
	}
}

func TestEventsEndpointStreams(t *testing.T) {
	_, tr, base := startServer(t)
	tr.Begin("campaign", []harness.CellDecl{{Name: "CG/ilan", Units: 1}})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Publish after the subscription is live: complete the only cell, then
	// finish the campaign.
	go func() {
		// The handler subscribes before writing the header we already
		// received, so events from here on are not lost.
		tr.UnitDone(0, 0, nil, nil, nil)
		tr.Finish(nil)
	}()

	sc := bufio.NewScanner(resp.Body)
	var events []string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			var ev harness.ProgressEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("event data is not JSON: %v: %s", err, line)
			}
		}
		if len(events) == 2 {
			break
		}
	}
	if len(events) != 2 || events[0] != "cell" || events[1] != "done" {
		t.Fatalf("events = %v, want [cell done]", events)
	}
}

func TestWaitFinished(t *testing.T) {
	tr := harness.NewTracker()
	tr.Begin("c", []harness.CellDecl{{Name: "a", Units: 1}})
	go func() {
		time.Sleep(20 * time.Millisecond)
		tr.Finish(nil)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if !WaitFinished(ctx, tr, time.Millisecond) {
		t.Fatal("WaitFinished timed out")
	}

	tr2 := harness.NewTracker()
	tr2.Begin("never", []harness.CellDecl{{Name: "a", Units: 1}})
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	if WaitFinished(ctx2, tr2, time.Millisecond) {
		t.Fatal("WaitFinished reported an unfinished campaign as done")
	}
}

func TestServerAddr(t *testing.T) {
	srv, _, base := startServer(t)
	if got := "http://" + srv.Addr(); got != base {
		t.Fatalf("Addr = %s, want %s", got, base)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/progress"); err == nil {
		t.Fatal("server still serving after Close")
	}
}
