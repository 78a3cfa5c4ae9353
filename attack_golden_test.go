package dehealth

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
)

// attackGoldenPath pins the complete output of one seeded closed-world
// attack: the refined-DA mapping and every Top-K row (candidate ids and
// the float64 bits of their scores), true ranks, λ_u means, row minima
// and the global score extremes. Any change to feature extraction,
// similarity scoring, candidate selection or the classifiers that moves
// a single bit of the attack shows up as a diff against this file.
const attackGoldenPath = "testdata/attack_golden.txt"

// goldenAttack runs the pinned attack: a small generated world, a
// closed-world split, and the paper's default SMO refined DA over Top-10
// direct selection.
func goldenAttack(t *testing.T) []byte {
	t.Helper()
	w := GenerateWorld(WorldConfig{WebMDUsers: 90, HBUsers: 60, Seed: 1201})
	split := SplitClosedWorld(w.WebMD, 0.5, 1202)
	opt := DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 10
	opt.Seed = 1203
	res, err := PrepareWorld(split.Anon, split.Aux, opt).AttackWithTruth(opt, split.TrueMapping)
	if err != nil {
		t.Fatalf("AttackWithTruth: %v", err)
	}
	return formatAttack(res)
}

// formatAttack renders an attack result one anonymized user per line:
//
//	u mapping trueRank meanBits rowMinBits user:scoreBits ...
//
// Floats are written as the hex of their IEEE-754 bits so the comparison
// is exact.
func formatAttack(res *Result) []byte {
	var b bytes.Buffer
	tk := res.TopK
	fmt.Fprintf(&b, "k %d max %016x min %016x\n", tk.K, math.Float64bits(tk.MaxScore), math.Float64bits(tk.MinScore))
	for u, m := range res.Mapping {
		fmt.Fprintf(&b, "%d %d %d %016x %016x", u, m, tk.TrueRank[u],
			math.Float64bits(tk.MeanScore[u]), math.Float64bits(tk.RowMin[u]))
		for _, c := range tk.Candidates[u] {
			fmt.Fprintf(&b, " %d:%016x", c.User, math.Float64bits(c.Score))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestWriteAttackGolden regenerates the committed golden attack. It is
// env-guarded: the file exists to catch unintended changes, so it is
// rewritten only on purpose, after a change that is meant to move the
// attack's output.
func TestWriteAttackGolden(t *testing.T) {
	if os.Getenv("DEHEALTH_WRITE_GOLDEN") == "" {
		t.Skip("set DEHEALTH_WRITE_GOLDEN=1 to (re)write the golden attack")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(attackGoldenPath, goldenAttack(t), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAttackGolden reruns the pinned attack and demands byte-identical
// output. Go may fuse a*b+c into one rounding on architectures with a
// fused multiply-add instruction (arm64, ppc64, s390x), which moves the
// last bits of the scores, so the float bits are pinned on amd64 only.
func TestAttackGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	want, err := os.ReadFile(attackGoldenPath)
	if err != nil {
		t.Fatalf("reading golden attack: %v (regenerate with DEHEALTH_WRITE_GOLDEN=1)", err)
	}
	got := goldenAttack(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("attack output differs from %s at line %d:\n got: %s\nwant: %s", attackGoldenPath, i+1, g, w)
		}
	}
}
