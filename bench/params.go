package main

import "time"

// Fixed benchmark parameters. The open-loop rates and the router hedge
// delay were set once, from capacity measured on the commit that defined
// the benchmark (2-vCPU x86-64 VM, Go 1.24); they are never recomputed
// per run, so a later commit that cannot sustain a rate shows rising
// latency and failed_frac instead of a quietly lower send rate.
const (
	// forumServeUsers and routedUsers are the per-forum account counts
	// handed to the public GenerateWorld.
	forumServeUsers = 1000
	routedUsers     = 3000
	// maxUserPosts caps each generated user's posts before the split.
	maxUserPosts = 20
	// auxFrac is the closed-world split: half of every user's posts are
	// auxiliary (attacker-known) data.
	auxFrac = 0.5
	// topK is the candidate-set size of every query and of the attack.
	topK = 10
	// maxBigrams is dehealthd's default POS-bigram cap, pinned so the
	// in-process reference worlds match the servers' worlds exactly.
	maxBigrams = 300
	// shards is the auxiliary partition count of both serving workloads.
	shards = 2
	// approxTheta is the routed workload's approximate-tier skip scale.
	approxTheta = 1.3

	// serveRate and routedRate are the Phase B open-loop request rates
	// (requests per second), about a quarter of each workload's Phase A
	// closed-loop capacity at definition time (about 590 and 260): low
	// enough that the two in-flight connections are mostly free, so the
	// latency measures the servers, not the generator's queue.
	serveRate  = 150.0
	routedRate = 70.0
	// ingestShare is the fraction of forum-serve Phase B requests that are
	// /v1/ingest of a fresh generated user.
	ingestShare = 0.05
	// ingestPosts caps the posts of one ingested user, so every ingest
	// costs about the same whatever the seed.
	ingestPosts = 3
	// hedgeDelay is dehealth-router's -hedge-ms. The shard servers' p90
	// round trip under Phase B was about 8 ms, but with one replica per
	// shard a hedge repeats the work on the loaded shard: at 8 and 12 ms
	// the closed loop fell into self-sustaining hedge storms that halved
	// qps. At 25 ms hedges are rare and the path still runs.
	hedgeDelay = 25 * time.Millisecond
	// routedSample is how many distinct anonymized users the routed
	// workload queries (gate, recall and load all draw from this set).
	routedSample = 400

	// deadline bounds one request, measured from its scheduled send time
	// in the open loop: a request later than this counts as failed.
	deadline = time.Second
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 3
	// bootTimeout bounds every wait for a process's first correct answer.
	bootTimeout = 60 * time.Second
)
