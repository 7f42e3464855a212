// Package obsserve is the opt-in live campaign monitor: a small HTTP
// server over a harness.Tracker. Endpoints (DESIGN.md §10):
//
//	/metrics   Prometheus text, merged across the reps completed so far —
//	           counters are sums over completed reps, so successive scrapes
//	           see monotone values. Attribution (-attr) rides along as
//	           ilan_attr_* series, harness progress and the cache counters
//	           as ilan_campaign_* series.
//	/progress  JSON progress snapshot: cells done/total, per-cell rep
//	           counts, elapsed wall-clock, throughput-extrapolated ETA.
//	/events    Server-Sent Events stream of cell-completion, scheduler
//	           phase-transition, and campaign-done events.
//
// The server only reads: progress counters via atomics, merged metrics
// from per-rep snapshots published once per repetition. Nothing it does
// can block a pool worker or perturb the simulation, so campaign outputs
// are byte-identical with and without a monitor attached.
package obsserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/ilan-sched/ilan/internal/harness"
)

// Server serves a Tracker's live view. Create with New, then Start.
type Server struct {
	tr   *harness.Tracker
	ln   net.Listener
	http *http.Server
}

// New returns an unstarted server over tr (which must be non-nil and
// should also be attached to the campaign via harness.Config.Track).
func New(tr *harness.Tracker) *Server {
	if tr == nil {
		panic("obsserve: nil tracker")
	}
	return &Server{tr: tr}
}

// Start listens on addr (e.g. ":0" for an ephemeral port, "127.0.0.1:8080")
// and serves in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obsserve: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/events", s.handleEvents)
	s.ln = ln
	s.http = &http.Server{Handler: mux}
	go func() { _ = s.http.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down, unblocking any open SSE streams.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

// handleMetrics serves the tracker's one metrics snapshot as Prometheus
// text: the merged metrics and attribution series of every completed rep
// plus the campaign-progress and cache series. Valid (if
// campaign-metrics-empty) even when the campaign runs without -metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.tr.Metrics().WritePrometheus(w)
}

// handleProgress serves the JSON progress snapshot.
func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.tr.Snapshot())
}

// handleEvents streams tracker events as SSE. Each event is one JSON
// object on a `data:` line; the event name repeats the Type field so
// EventSource listeners can filter. A slow consumer loses events (the
// tracker's publish path never blocks); the stream ends when the client
// disconnects or the server closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribe before the response header goes out: a client that has
	// seen the headers must not miss events published immediately after.
	ch, cancel := s.tr.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func writeSSE(w http.ResponseWriter, ev harness.ProgressEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err
}

// WaitFinished blocks until the tracker reports the campaign terminal or
// the context expires — a convenience for CLIs that keep the monitor up
// briefly after the campaign (so a scraper can observe the final state).
func WaitFinished(ctx context.Context, tr *harness.Tracker, poll time.Duration) bool {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		if tr.Snapshot().Finished {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
		}
	}
}
