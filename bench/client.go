package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"dehealth"
)

// errWrong marks a reply whose candidates differ from the reference.
var errWrong = errors.New("wrong answer")

// client speaks the dehealthd and dehealth-router HTTP wire. Its transport
// holds at most conns connections per server, so the generator never has
// more requests in flight than it has workers.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * deadline}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

type wireCandidate struct {
	User  int     `json:"user"`
	Score float64 `json:"score"`
}

type queryReply struct {
	User       int             `json:"user"`
	Candidates []wireCandidate `json:"candidates"`
	Partial    bool            `json:"partial"`
	Missing    []int           `json:"missing_shards"`
}

func (c *client) post(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *client) get(url string, out any) error {
	resp, err := c.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// query sends POST /v1/query to base (a dehealthd or the router).
func (c *client) query(base string, u int, approx bool) (queryReply, error) {
	var r queryReply
	err := c.post(base+"/v1/query", map[string]any{"user": u, "k": topK, "approx": approx}, &r)
	if err == nil && r.Partial {
		err = fmt.Errorf("partial answer: missing shards %v", r.Missing)
	}
	return r, err
}

// internalQuery sends one user to a shard server's POST /internal/query
// and returns its shard-local top-k (global ids).
func (c *client) internalQuery(base string, u int, approx bool) ([]wireCandidate, error) {
	var r struct {
		Results [][]wireCandidate `json:"results"`
	}
	if err := c.post(base+"/internal/query", map[string]any{"users": []int{u}, "k": topK, "approx": approx}, &r); err != nil {
		return nil, err
	}
	if len(r.Results) != 1 {
		return nil, fmt.Errorf("internal query answered %d results for 1 user", len(r.Results))
	}
	return r.Results[0], nil
}

// ingest sends one fresh user to POST /v1/ingest and returns its new id.
func (c *client) ingest(base string, u ingestUser) (int, error) {
	var r struct {
		User int `json:"user"`
	}
	err := c.post(base+"/v1/ingest", u, &r)
	return r.User, err
}

// sameCandidates reports whether a wire answer equals the in-process one
// bit for bit: same users, same order, same float64 scores.
func sameCandidates(got []wireCandidate, want []dehealth.Candidate) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].User != want[i].User || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}

// overlap is |a ∩ b| over candidate users.
func overlap(a []wireCandidate, b []dehealth.Candidate) int {
	in := make(map[int]bool, len(b))
	for _, c := range b {
		in[c.User] = true
	}
	n := 0
	for _, c := range a {
		if in[c.User] {
			n++
		}
	}
	return n
}

// serveStats is the subset of dehealthd's GET /v1/stats the benchmark reads.
type serveStats struct {
	Queries       int64   `json:"queries"`
	Ingests       int64   `json:"ingests"`
	Batches       int64   `json:"batches"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	Approx        *struct {
		Queries         int64 `json:"queries"`
		CursorsOpened   int64 `json:"cursors_opened"`
		PostingsSkipped int64 `json:"postings_skipped"`
		Rescored        int64 `json:"rescored"`
		BlocksChecked   int64 `json:"blocks_checked"`
		BlocksSkipped   int64 `json:"blocks_skipped"`
		CursorsDemoted  int64 `json:"cursors_demoted"`
	} `json:"approx"`
}

// routerStats is the subset of dehealth-router's GET /v1/stats it reads.
type routerStats struct {
	Queries   int64 `json:"queries"`
	Retries   int64 `json:"retries"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	Partials  int64 `json:"partials"`
}
