package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"dehealth"
)

// tinyUsers keeps the determinism checks to a few seconds.
const tinyUsers = 80

// TestInputsRepeat checks that a seed fixes the generated inputs and that
// another seed changes them.
func TestInputsRepeat(t *testing.T) {
	a, err := makeInputs(3, tinyUsers, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(3, tinyUsers, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeInputs(4, tinyUsers, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("seed 3 generated different inputs: %s vs %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 3 and 4 generated the same inputs %s", a.digest)
	}
}

// TestQualityRepeat checks that the quality metrics of one seed repeat
// exactly: topk_success and refined_accuracy of the attack, and the
// recall_at_10 of the approximate tier against the exact answers.
func TestQualityRepeat(t *testing.T) {
	in, err := makeInputs(5, tinyUsers, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := in.split
	type quality struct{ topk, refined, recall float64 }
	measure := func() quality {
		opt := attackOptions()
		res, err := dehealth.PrepareWorld(sp.Anon, sp.Aux, opt).AttackWithTruth(opt, sp.TrueMapping)
		if err != nil {
			t.Fatal(err)
		}
		var q quality
		q.topk, q.refined = attackQuality(sp, res)

		ropt := routedOptions()
		exactOpt := ropt
		exactOpt.Approx.Enabled = false
		pw := dehealth.PrepareWorld(sp.Anon, sp.Aux, ropt)
		n := sp.Anon.NumUsers()
		exact := make([][]dehealth.Candidate, n)
		approx := make([][]wireCandidate, n)
		for u := 0; u < n; u++ {
			if exact[u], err = pw.QueryUser(u, topK, exactOpt); err != nil {
				t.Fatal(err)
			}
			got, err := pw.QueryUser(u, topK, ropt)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range got {
				approx[u] = append(approx[u], wireCandidate{User: c.User, Score: c.Score})
			}
		}
		q.recall = recallAt10(approx, exact)
		return q
	}
	first, second := measure(), measure()
	if first != second {
		t.Errorf("quality differs between two runs of one seed: %+v vs %+v", first, second)
	}
	if first.topk <= 0 || first.recall <= 0 {
		t.Errorf("degenerate quality %+v", first)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []metric, defs []metricDef, declared []string) {
		var gotNames []string
		for _, m := range got {
			gotNames = append(gotNames, m.Name)
			unit := unitOf(defs, m.Name)
			if unit != m.Unit {
				t.Errorf("%s metric %s: unit %q, program reports %q", kind, m.Name, m.Unit, unit)
			}
			for _, d := range defs {
				if d.name == m.Name && d.better != m.Better {
					t.Errorf("%s metric %s: better %q, program says %q", kind, m.Name, m.Better, d.better)
				}
			}
		}
		if !slices.Equal(gotNames, declared) {
			t.Errorf("BENCHMARK.json %s metrics %v, program reports %v", kind, gotNames, declared)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, gated)
	var layers []string
	for _, m := range perLayer {
		layers = append(layers, m.name)
	}
	check("per_layer", b.PerLayer, perLayer, layers)
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound must be in (0, 0.25]", m.Name)
		}
	}
}
