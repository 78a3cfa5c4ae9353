package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// testBackend is a minimal prepared world: a store pair, one pipeline, and
// the read/write discipline the public API applies (the dispatcher already
// serializes ingests against queries; the lock only guards direct test
// access).
type testBackend struct {
	mu   sync.RWMutex
	anon *features.Store
	p    *core.Pipeline
}

func newTestBackend(t *testing.T, users int, seed int64) *testBackend {
	t.Helper()
	u := synth.NewUniverse(users, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	members := synth.Members(u, users, rng)
	cfg := synth.WebMDLike(users, seed+2)
	cfg.FixedPosts = 6
	d := synth.Generate(cfg, u, members)
	split := corpus.SplitClosedWorld(d, 0.5, rand.New(rand.NewSource(seed+3)))
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	return &testBackend{
		anon: anonS,
		p:    core.NewPipelineFromStore(anonS, auxS, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}),
	}
}

func (b *testBackend) Ingest(batch []features.UserPosts) ([]int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids, err := b.anon.Append(batch)
	if err != nil {
		return nil, err
	}
	b.p.SyncAppended()
	return ids, nil
}

func (b *testBackend) QueryUser(u, k int) ([]core.Candidate, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if u < 0 || u >= b.p.G1.NumNodes() {
		return nil, fmt.Errorf("user %d out of range", u)
	}
	return b.p.QueryUser(u, k), nil
}

func (b *testBackend) QueryBatch(users []int, k int) ([][]core.Candidate, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, u := range users {
		if u < 0 || u >= b.p.G1.NumNodes() {
			return nil, fmt.Errorf("user %d out of range", u)
		}
	}
	return b.p.QueryBatch(users, k, 0), nil
}

func (b *testBackend) Sizes() (int, int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.p.G1.NumNodes(), b.p.G2.NumNodes()
}

func (b *testBackend) ShardSizes() []ShardCount {
	anon, aux := b.Sizes()
	return []ShardCount{{Shard: 0, AuxUsers: aux, AnonUsers: anon}}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHTTPRoundTrip drives the full wire path: query an existing user,
// ingest a new one (posts with and without thread ids), query the ingested
// user, and read back stats.
func TestHTTPRoundTrip(t *testing.T) {
	b := newTestBackend(t, 16, 61)
	s := New(b, Config{MaxBatch: 4, DefaultK: 5})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	anon0, aux := b.Sizes()

	resp := postJSON(t, ts.URL+"/v1/query", map[string]int{"user": 2, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	q := decode[queryReplyWire](t, resp)
	if q.User != 2 || len(q.Candidates) != 3 {
		t.Fatalf("query reply %+v, want user 2 with 3 candidates", q)
	}
	want, _ := b.QueryUser(2, 3)
	for i, c := range q.Candidates {
		if c.User != want[i].User || c.Score != want[i].Score {
			t.Fatalf("candidate %d = %+v, want %+v", i, c, want[i])
		}
	}
	for i := 1; i < len(q.Candidates); i++ {
		if q.Candidates[i].Score > q.Candidates[i-1].Score {
			t.Fatal("candidates not sorted by decreasing score")
		}
	}

	thread := 0
	resp = postJSON(t, ts.URL+"/v1/ingest", ingestWire{
		Name: "newly-observed",
		Posts: []ingestPostWire{
			{Thread: &thread, Text: "my physical therapist recommended daily stretching"},
			{Text: "has anyone else had trouble sleeping after surgery?"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	in := decode[ingestReplyWire](t, resp)
	if in.User != anon0 {
		t.Fatalf("ingested user id %d, want %d", in.User, anon0)
	}

	resp = postJSON(t, ts.URL+"/v1/query", map[string]int{"user": in.User})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query of ingested user: status %d", resp.StatusCode)
	}
	q = decode[queryReplyWire](t, resp)
	if len(q.Candidates) != 5 { // DefaultK
		t.Fatalf("ingested user got %d candidates, want 5", len(q.Candidates))
	}

	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[Stats](t, st)
	if stats.AnonUsers != anon0+1 || stats.AuxUsers != aux {
		t.Fatalf("stats sizes %+v, want anon %d aux %d", stats, anon0+1, aux)
	}
	if stats.Queries != 2 || stats.Ingests != 1 || stats.Batches == 0 {
		t.Fatalf("stats counters %+v", stats)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hz.StatusCode)
	}
}

// TestHTTPErrors covers the failure surface: malformed bodies, unknown
// users, bad thread references, wrong methods, and a closed server.
func TestHTTPErrors(t *testing.T) {
	b := newTestBackend(t, 10, 71)
	s := New(b, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/query", map[string]int{"user": 10_000})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown user: status %d, want 400", resp.StatusCode)
	}

	bad := 9999
	resp = postJSON(t, ts.URL+"/v1/ingest", ingestWire{Name: "x", Posts: []ingestPostWire{{Thread: &bad, Text: "hi"}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad thread: status %d, want 400", resp.StatusCode)
	}

	get, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET query: status %d, want 405", get.StatusCode)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/v1/query", map[string]int{"user": 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed server: status %d, want 503", resp.StatusCode)
	}
}

// holdBackend holds the first flush that reaches the backend — through
// Ingest or QueryBatch — until the test closes release. Requests sent
// while it is held park on the dispatcher's channel and, once released,
// form the next batch together: how tests build a batch on purpose.
type holdBackend struct {
	Backend
	held    chan struct{} // closed once the first flush is inside the backend
	release chan struct{} // closed by the test to let that flush finish
	once    sync.Once
}

func newHoldBackend(b Backend) *holdBackend {
	return &holdBackend{Backend: b, held: make(chan struct{}), release: make(chan struct{})}
}

func (b *holdBackend) hold() {
	b.once.Do(func() {
		close(b.held)
		<-b.release
	})
}

func (b *holdBackend) Ingest(batch []features.UserPosts) ([]int, error) {
	b.hold()
	return b.Backend.Ingest(batch)
}

func (b *holdBackend) QueryBatch(users []int, k int) ([][]core.Candidate, error) {
	b.hold()
	return b.Backend.QueryBatch(users, k)
}

// waitParked waits until n goroutines are blocked in Server.submit: the
// requests parked on the dispatcher's channel behind a held flush plus
// the waiters of the held flush itself. Only then is the next batch
// fixed, so releasing the flush forms it deterministically.
func waitParked(t *testing.T, n int) {
	t.Helper()
	const frame = "dehealth/internal/serve.(*Server).submit("
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		m := runtime.Stack(buf, true)
		for m == len(buf) { // truncated: grow until every goroutine fits
			buf = make([]byte, 2*len(buf))
			m = runtime.Stack(buf, true)
		}
		parked := 0
		for _, g := range strings.Split(string(buf[:m]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, frame) {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests waiting in submit, want %d", parked, n)
		}
	}
}

type reply struct {
	status int
	body   []byte
}

// postAsync posts a JSON body on its own goroutine and delivers the
// reply; status -1 means the request never got an HTTP response.
func postAsync(url, body string) <-chan reply {
	out := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			out <- reply{status: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		buf, err := io.ReadAll(resp.Body)
		if err != nil {
			out <- reply{status: -1, body: []byte(err.Error())}
			return
		}
		out <- reply{status: resp.StatusCode, body: buf}
	}()
	return out
}

// holderIngest is the ingest a test sends to occupy the dispatcher with
// a held flush before it parks the requests under test.
const holderIngest = `{"name": "holder", "posts": [{"text": "an account that keeps the dispatcher busy"}]}`

// TestMicroBatching pins batch-while-busy: queries that arrive while a
// flush runs park on the dispatcher's channel and, once it finishes,
// reach the backend MaxBatch at a time — ceil(N/MaxBatch) QueryBatch
// calls for N parked queries — with every reply matching QueryUser.
func TestMicroBatching(t *testing.T) {
	spy := &batchSpyBackend{testBackend: newTestBackend(t, 12, 81)}
	b := newHoldBackend(spy)
	const maxBatch, n = 4, 10
	s := New(b, Config{MaxBatch: maxBatch, DefaultK: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	holder := postAsync(ts.URL+"/v1/ingest", holderIngest)
	<-b.held
	replies := make([]<-chan reply, n)
	for i := range replies {
		replies[i] = postAsync(ts.URL+"/v1/query", fmt.Sprintf(`{"user": %d}`, i))
	}
	waitParked(t, n+1) // the parked queries plus the held ingest's waiter
	close(b.release)

	if r := <-holder; r.status != http.StatusOK {
		t.Fatalf("holder ingest: status %d (%s)", r.status, r.body)
	}
	for i, ch := range replies {
		r := <-ch
		if r.status != http.StatusOK {
			t.Fatalf("query %d: status %d (%s)", i, r.status, r.body)
		}
		var q queryReplyWire
		if err := json.Unmarshal(r.body, &q); err != nil {
			t.Fatal(err)
		}
		want, _ := spy.testBackend.QueryUser(i, 3)
		if len(q.Candidates) != len(want) {
			t.Fatalf("query %d: %d candidates, want %d", i, len(q.Candidates), len(want))
		}
		for j, c := range q.Candidates {
			if c.User != want[j].User || c.Score != want[j].Score {
				t.Fatalf("query %d candidate %d: %+v, want %+v", i, j, c, want[j])
			}
		}
	}
	if got, want := atomic.LoadInt32(&spy.batchCalls), int32((n+maxBatch-1)/maxBatch); got != want {
		t.Fatalf("%d parked queries reached the backend in %d QueryBatch calls, want %d", n, got, want)
	}
	if got := atomic.LoadInt32(&spy.batchedQs); got != n {
		t.Fatalf("QueryBatch saw %d queries total, want %d", got, n)
	}
}

// TestIngestBatchFailureIsolation parks a valid and an invalid ingest
// behind a held flush so they share the next micro-batch, and checks the
// valid client succeeds while only the bad request is rejected.
func TestIngestBatchFailureIsolation(t *testing.T) {
	b := newHoldBackend(newTestBackend(t, 12, 91))
	anon0, _ := b.Sizes()
	s := New(b, Config{MaxBatch: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	holder := postAsync(ts.URL+"/v1/query", `{"user": 0, "k": 2}`)
	<-b.held
	send := func(w ingestWire) <-chan reply {
		buf, _ := json.Marshal(w)
		return postAsync(ts.URL+"/v1/ingest", string(buf))
	}
	bad := 9999
	results := []<-chan reply{
		send(ingestWire{Name: "good", Posts: []ingestPostWire{{Text: "valid post about recovery"}}}),
		send(ingestWire{Name: "bad", Posts: []ingestPostWire{{Thread: &bad, Text: "x"}}}),
	}
	waitParked(t, 3) // both ingests plus the held query's waiter
	close(b.release)
	if r := <-holder; r.status != http.StatusOK {
		t.Fatalf("holder query: status %d (%s)", r.status, r.body)
	}

	var ok, failed int
	for _, ch := range results {
		r := <-ch
		switch r.status {
		case http.StatusOK:
			ok++
		case http.StatusBadRequest:
			failed++
		default:
			t.Fatalf("unexpected status %d (%s)", r.status, r.body)
		}
	}
	if ok != 1 || failed != 1 {
		t.Fatalf("got %d ok / %d failed, want 1 / 1: a bad batch peer must not fail valid ingests", ok, failed)
	}
	if anon1, _ := b.Sizes(); anon1 != anon0+1 {
		t.Fatalf("anon users = %d, want %d (exactly the valid ingest applied)", anon1, anon0+1)
	}
	if st := s.Stats(); st.Batches != 2 {
		t.Fatalf("%d flushes, want 2 (the held query, then both ingests together)", st.Batches)
	}
}

// TestRequestBounds checks each serve-path limit: bodies past
// MaxBodyBytes get 413 on /v1/query, /v1/ingest and /internal/query, and
// batches past MaxBatchUsers get 400 on /v1/ingest and /internal/query —
// all before anything reaches the backend.
func TestRequestBounds(t *testing.T) {
	b := &batchSpyBackend{testBackend: newTestBackend(t, 10, 97)}
	anon0, _ := b.Sizes()
	s := New(b, Config{})
	defer s.Close()
	h := s.Handler()

	pad := strings.Repeat("x", MaxBodyBytes)
	long := func(item string) string {
		return strings.TrimSuffix(strings.Repeat(item+",", MaxBatchUsers+1), ",")
	}
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"oversized query", "/v1/query", `{"user": 1, "pad": "` + pad + `"}`, http.StatusRequestEntityTooLarge},
		{"oversized ingest", "/v1/ingest", `{"name": "` + pad + `"}`, http.StatusRequestEntityTooLarge},
		{"oversized internal query", "/internal/query", `{"users": [1], "pad": "` + pad + `"}`, http.StatusRequestEntityTooLarge},
		{"over-long ingest batch", "/v1/ingest", `[` + long(`{"name": "x"}`) + `]`, http.StatusBadRequest},
		{"over-long internal query", "/internal/query", `{"users": [` + long("0") + `]}`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
	if anon1, _ := b.Sizes(); anon1 != anon0 {
		t.Fatalf("rejected ingests mutated the world: %d users, want %d", anon1, anon0)
	}
	if calls := atomic.LoadInt32(&b.batchCalls) + atomic.LoadInt32(&b.singleCalls); calls != 0 {
		t.Fatalf("rejected queries reached the backend %d times", calls)
	}
}

// TestServeAfterClose pins the Close/Serve ordering contract: Serve on a
// closed server must close the listener and return ErrClosed instead of
// blocking forever.
func TestServeAfterClose(t *testing.T) {
	b := newTestBackend(t, 10, 95)
	s := New(b, Config{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(l); err != ErrClosed {
		t.Fatalf("Serve after Close = %v, want ErrClosed", err)
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("listener left open after Serve on closed server")
	}
}

// TestBatchedIngest drives the array form of /v1/ingest: several users in
// one body land as one backend batch with dense consecutive ids, the
// single-object form keeps its reply shape, and the empty array is a
// well-formed no-op.
func TestBatchedIngest(t *testing.T) {
	b := newTestBackend(t, 12, 101)
	anon0, _ := b.Sizes()
	s := New(b, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	thread := 0
	resp := postJSON(t, ts.URL+"/v1/ingest", []ingestWire{
		{Name: "batch-a", Posts: []ingestPostWire{{Thread: &thread, Text: "first batched account"}}},
		{Name: "batch-b", Posts: []ingestPostWire{{Text: "second batched account, fresh thread"}}},
		{Name: "batch-c", Posts: []ingestPostWire{{Text: "third batched account"}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batched ingest status %d", resp.StatusCode)
	}
	reply := decode[ingestBatchReplyWire](t, resp)
	if len(reply.Users) != 3 {
		t.Fatalf("batched ingest returned %d ids, want 3", len(reply.Users))
	}
	for i, id := range reply.Users {
		if id != anon0+i {
			t.Fatalf("batched ids %v, want dense from %d", reply.Users, anon0)
		}
	}
	if anon1, _ := b.Sizes(); anon1 != anon0+3 {
		t.Fatalf("anon users = %d, want %d", anon1, anon0+3)
	}

	// The whole batch is one logical ingest request in the counters.
	if st := s.Stats(); st.Ingests != 1 {
		t.Fatalf("stats ingests = %d, want 1", st.Ingests)
	}

	// Single-object compatibility.
	resp = postJSON(t, ts.URL+"/v1/ingest", ingestWire{Name: "solo", Posts: []ingestPostWire{{Text: "single object body"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single ingest status %d", resp.StatusCode)
	}
	if one := decode[ingestReplyWire](t, resp); one.User != anon0+3 {
		t.Fatalf("single ingest id %d, want %d", one.User, anon0+3)
	}

	// Empty batch: accepted, nothing applied.
	resp = postJSON(t, ts.URL+"/v1/ingest", []ingestWire{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}
	if empty := decode[ingestBatchReplyWire](t, resp); len(empty.Users) != 0 {
		t.Fatalf("empty batch returned ids %v", empty.Users)
	}
	if anon2, _ := b.Sizes(); anon2 != anon0+4 {
		t.Fatalf("anon users = %d, want %d", anon2, anon0+4)
	}

	// A bad entry fails the whole batched body (it is one atomic request).
	bad := 9999
	resp = postJSON(t, ts.URL+"/v1/ingest", []ingestWire{
		{Name: "ok", Posts: []ingestPostWire{{Text: "fine"}}},
		{Name: "broken", Posts: []ingestPostWire{{Thread: &bad, Text: "nope"}}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch status %d, want 400", resp.StatusCode)
	}
	if anon3, _ := b.Sizes(); anon3 != anon0+4 {
		t.Fatalf("bad batch mutated the world: %d users, want %d", anon3, anon0+4)
	}
}

// TestStatsShards checks /v1/stats carries the per-shard breakdown the
// backend reports.
func TestStatsShards(t *testing.T) {
	b := newTestBackend(t, 14, 111)
	s := New(b, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[Stats](t, resp)
	if len(st.Shards) != 1 {
		t.Fatalf("stats shards = %+v, want one entry", st.Shards)
	}
	if st.Shards[0].AuxUsers != st.AuxUsers || st.Shards[0].AnonUsers != st.AnonUsers {
		t.Fatalf("shard breakdown %+v does not match aggregate (%d, %d)", st.Shards[0], st.AnonUsers, st.AuxUsers)
	}
}

// TestCloseDrainsInFlight pins the graceful-drain contract: a query
// whose flush is running when Close arrives is answered (Close waits for
// the flush inside the drain window) and Close returns nil.
func TestCloseDrainsInFlight(t *testing.T) {
	b := newHoldBackend(newTestBackend(t, 10, 121))
	s := New(b, Config{DrainTimeout: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	got := postAsync(ts.URL+"/v1/query", `{"user": 1, "k": 3}`)
	<-b.held
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	<-s.quit // Close has begun while the flush is held
	close(b.release)
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v, want nil (drained)", err)
	}
	o := <-got
	if o.status == -1 {
		t.Fatalf("in-flight query failed: %s", o.body)
	}
	if o.status != http.StatusOK {
		t.Fatalf("in-flight query status %d, want 200 (drained with a response)", o.status)
	}
}

// TestCloseDrainTimeout checks Close gives up after DrainTimeout with
// ErrDrainTimeout while the stuck flush still answers its waiter once the
// backend recovers — late, but never dropped.
func TestCloseDrainTimeout(t *testing.T) {
	b := newHoldBackend(newTestBackend(t, 10, 131))
	s := New(b, Config{MaxBatch: 1, DrainTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status := postAsync(ts.URL+"/v1/query", `{"user": 0, "k": 2}`)
	<-b.held // the flush is inside the stalled backend

	start := time.Now()
	err := s.Close()
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Close = %v, want ErrDrainTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close blocked %v despite the drain deadline", elapsed)
	}

	close(b.release) // backend recovers; the background flush completes
	if got := (<-status).status; got != http.StatusOK && got != -1 {
		t.Fatalf("stalled query finished with status %d", got)
	}
}

// TestCloseDrainsServePath repeats the drain guarantee over a real
// listener (Serve, not just Handler): Close must let the handler
// goroutine finish writing the drained response before the connection is
// torn down — http.Server.Shutdown semantics, not Close semantics.
func TestCloseDrainsServePath(t *testing.T) {
	b := newHoldBackend(newTestBackend(t, 10, 141))
	s := New(b, Config{DrainTimeout: 5 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()

	got := postAsync("http://"+l.Addr().String()+"/v1/query", `{"user": 1, "k": 3}`)
	<-b.held
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	<-s.quit // Close has begun while the flush is held
	close(b.release)
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v, want nil", err)
	}
	o := <-got
	if o.status == -1 {
		t.Fatalf("in-flight query over the live listener failed: %s", o.body)
	}
	if o.status != http.StatusOK {
		t.Fatalf("in-flight query status %d, want 200", o.status)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}

// batchSpyBackend counts backend calls so tests can see how a flush was
// routed: whole same-k groups through QueryBatch, per-query fallback
// through QueryUser.
type batchSpyBackend struct {
	*testBackend
	batchCalls  int32
	batchedQs   int32
	singleCalls int32
}

func (b *batchSpyBackend) QueryUser(u, k int) ([]core.Candidate, error) {
	atomic.AddInt32(&b.singleCalls, 1)
	return b.testBackend.QueryUser(u, k)
}

func (b *batchSpyBackend) QueryBatch(users []int, k int) ([][]core.Candidate, error) {
	atomic.AddInt32(&b.batchCalls, 1)
	atomic.AddInt32(&b.batchedQs, int32(len(users)))
	return b.testBackend.QueryBatch(users, k)
}

// TestQueryFlushGroupsByK parks queries with two distinct k values (and
// one omitting k, which resolves to DefaultK) behind a held flush so they
// form one micro-batch, and
// checks the flush answers them as exactly two QueryBatch groups — no
// per-query backend calls — with every client's reply correct for its own
// k.
func TestQueryFlushGroupsByK(t *testing.T) {
	b := &batchSpyBackend{testBackend: newTestBackend(t, 12, 151)}
	hb := newHoldBackend(b)
	s := New(hb, Config{MaxBatch: 6, DefaultK: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	holder := postAsync(ts.URL+"/v1/ingest", holderIngest)
	<-hb.held

	reqs := []struct{ user, k, wantLen int }{
		{0, 2, 2}, {1, 0, 3}, {2, 5, 5}, {3, 2, 2}, {4, 3, 3}, {5, 5, 5},
	}
	var wg sync.WaitGroup
	replies := make([]queryReplyWire, len(reqs))
	errs := make([]error, len(reqs))
	for i, q := range reqs {
		wg.Add(1)
		go func(i int, user, k int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/query", queryWire{User: user, K: k})
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			replies[i] = decode[queryReplyWire](t, resp)
		}(i, q.user, q.k)
	}
	waitParked(t, len(reqs)+1) // the parked queries plus the held ingest's waiter
	close(hb.release)
	if r := <-holder; r.status != http.StatusOK {
		t.Fatalf("holder ingest: status %d (%s)", r.status, r.body)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	for i, q := range reqs {
		if len(replies[i].Candidates) != q.wantLen {
			t.Fatalf("query %d (k=%d): %d candidates, want %d", i, q.k, len(replies[i].Candidates), q.wantLen)
		}
		want, _ := b.testBackend.QueryUser(q.user, q.wantLen)
		for j, c := range replies[i].Candidates {
			if c.User != want[j].User || c.Score != want[j].Score {
				t.Fatalf("query %d candidate %d: %+v, want %+v", i, j, c, want[j])
			}
		}
	}
	// k∈{2, 3(default), 5} → exactly 3 groups; the fallback path never runs.
	if got := atomic.LoadInt32(&b.batchCalls); got != 3 {
		t.Fatalf("flush made %d QueryBatch calls, want 3 (one per distinct k)", got)
	}
	if got := atomic.LoadInt32(&b.batchedQs); got != int32(len(reqs)) {
		t.Fatalf("QueryBatch saw %d queries total, want %d", got, len(reqs))
	}
	if got := atomic.LoadInt32(&b.singleCalls); got != 0 {
		t.Fatalf("flush fell back to %d QueryUser calls, want 0", got)
	}
}

// TestQueryBatchFailureIsolation parks a bad user behind a held flush
// with two valid queries of the same k, so all three share the next flush: the group's QueryBatch fails whole, the
// per-query fallback must reject only the bad request and still answer its
// peers correctly.
func TestQueryBatchFailureIsolation(t *testing.T) {
	b := &batchSpyBackend{testBackend: newTestBackend(t, 12, 161)}
	hb := newHoldBackend(b)
	s := New(hb, Config{MaxBatch: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	holder := postAsync(ts.URL+"/v1/ingest", holderIngest)
	<-hb.held

	users := []int{0, 9999, 1}
	var wg sync.WaitGroup
	statuses := make([]int, len(users))
	for i, u := range users {
		wg.Add(1)
		go func(i, u int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/query", queryWire{User: u, K: 4})
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i, u)
	}
	waitParked(t, len(users)+1) // the parked queries plus the held ingest's waiter
	close(hb.release)
	if r := <-holder; r.status != http.StatusOK {
		t.Fatalf("holder ingest: status %d (%s)", r.status, r.body)
	}
	wg.Wait()
	if statuses[0] != http.StatusOK || statuses[2] != http.StatusOK {
		t.Fatalf("valid batch peers got statuses %v, want 200s", statuses)
	}
	if statuses[1] != http.StatusBadRequest {
		t.Fatalf("bad user got status %d, want 400", statuses[1])
	}
	if got := atomic.LoadInt32(&b.singleCalls); got != 3 {
		t.Fatalf("fallback made %d QueryUser calls, want 3 (the whole failed group)", got)
	}
}

// TestFlushQueryAllocs pins the batched flush's steady-state allocation
// behavior: repeated same-shape flushes must not grow with the auxiliary
// population — the grouping scratch lives on the Server and the kernel
// scratch is pooled, leaving only per-result slices and bookkeeping.
func TestFlushQueryAllocs(t *testing.T) {
	b := newTestBackend(t, 30, 171)
	s := New(b, Config{MaxBatch: 64, DefaultK: 5})
	defer s.Close()

	const q = 8
	batch := make([]*request, q)
	for i := range batch {
		batch[i] = &request{query: &queryWire{User: i, K: 5}, done: make(chan result, 1)}
	}
	drain := func() {
		for _, r := range batch {
			res := <-r.done
			if res.err != nil {
				t.Fatal(res.err)
			}
		}
	}
	s.flush(batch)
	drain() // warm scorer state, server scratch and the kernel pool
	allocs := testing.AllocsPerRun(50, func() {
		s.flush(batch)
		drain()
	})
	// Per flush: q result sets of k candidates plus heap/sort bookkeeping,
	// independent of |aux|. A regression to per-flush kernel scratch (Q
	// profiles, block buffers) or per-query aux scans would blow
	// far past this.
	if max := float64(8*q + 16); allocs > max {
		t.Fatalf("flush allocates %v times for %d queries, want <= %v", allocs, q, max)
	}
}
