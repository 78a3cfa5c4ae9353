package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"dehealth"
)

// inputs is everything one workload run generates from its seed: the
// closed-world split the servers boot from (written as dataset JSON), the
// fresh users the open loop ingests, and a digest of all of it.
type inputs struct {
	split    *dehealth.Split
	auxPath  string
	anonPath string
	// ingest holds fresh users from the world's second forum: accounts
	// the prepared world has never seen.
	ingest []ingestUser
	digest string
}

type ingestUser struct {
	Name  string       `json:"name"`
	Posts []ingestPost `json:"posts"`
}

// ingestPost omits the thread, so every post starts a new thread and an
// ingested account never links to existing ones.
type ingestPost struct {
	Text string `json:"text"`
}

// makeInputs generates a paper-shaped world with users accounts per
// forum from seed, splits its WebMD-like forum 50/50 and writes both
// sides into dir. The servers receive only these files.
func makeInputs(seed int64, users int, dir string) (*inputs, error) {
	w := dehealth.GenerateWorld(dehealth.WorldConfig{WebMDUsers: users, HBUsers: users, Seed: seed})
	sp := dehealth.SplitClosedWorld(capPosts(w.WebMD, maxUserPosts), auxFrac, seed+1)
	in := &inputs{
		split:    sp,
		auxPath:  filepath.Join(dir, "aux.json"),
		anonPath: filepath.Join(dir, "anon.json"),
	}
	if err := sp.Aux.Save(in.auxPath); err != nil {
		return nil, fmt.Errorf("writing auxiliary dataset: %w", err)
	}
	if err := sp.Anon.Save(in.anonPath); err != nil {
		return nil, fmt.Errorf("writing anonymized dataset: %w", err)
	}
	h := sha256.New()
	for _, p := range []string{in.auxPath, in.anonPath} {
		if err := hashFile(h, p); err != nil {
			return nil, err
		}
	}
	for i, texts := range w.HB.UserTexts() {
		if len(texts) == 0 {
			continue
		}
		u := ingestUser{Name: fmt.Sprintf("fresh-%d", i)}
		for _, t := range texts[:min(len(texts), ingestPosts)] {
			u.Posts = append(u.Posts, ingestPost{Text: t})
			io.WriteString(h, t)
		}
		in.ingest = append(in.ingest, u)
	}
	in.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return in, nil
}

// capPosts keeps each user's first max posts. The generator's post counts
// are heavy-tailed, and refined DA trains on every post of every
// candidate: uncapped, the few heaviest users made one seed's attack take
// 3.6 times as long as another's (7 s to 26 s over seeds 1 to 5).
func capPosts(d *dehealth.Dataset, max int) *dehealth.Dataset {
	out := &dehealth.Dataset{Name: d.Name, Users: d.Users, Threads: d.Threads}
	n := make([]int, len(d.Users))
	for _, p := range d.Posts {
		if n[p.User] == max {
			continue
		}
		n[p.User]++
		p.ID = len(out.Posts)
		out.Posts = append(out.Posts, p)
	}
	return out
}

func hashFile(h io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(h, f)
	return err
}

// overlapping returns the anonymized users with a true auxiliary account,
// in increasing order.
func overlapping(sp *dehealth.Split) []int {
	var us []int
	for u := 0; u < sp.Anon.NumUsers(); u++ {
		if _, ok := sp.TrueMapping[u]; ok {
			us = append(us, u)
		}
	}
	return us
}

// userSequence draws n anonymized users uniformly from pool with a
// seeded generator: the order every loop of a run sends its queries in.
func userSequence(seed int64, pool []int, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// sample draws n distinct users from [0, total) in a seeded order.
func sample(seed int64, total, n int) []int {
	perm := rand.New(rand.NewSource(seed)).Perm(total)
	if n > total {
		n = total
	}
	return perm[:n]
}

func allUsers(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
