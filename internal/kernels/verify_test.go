package kernels

import (
	"strings"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/sim"
)

// goldenMemory runs k once and returns the verified final memory image.
func goldenMemory(t *testing.T, k *Kernel) []uint32 {
	t.Helper()
	g := config.GTX480().Scaled(2)
	g.MaxCycles = 100_000_000
	eng, err := sim.New(sim.Options{GPU: g, Sched: config.GTO,
		BOWS: config.BOWS{Mode: config.BOWSOff}, DDOS: config.DefaultDDOS()}, k.Launch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Verify(res.Memory); err != nil {
		t.Fatal(err)
	}
	return res.Memory
}

// TestVerifiersCatchCorruption flips words in an otherwise correct memory
// image and checks each kernel's verifier notices — a verifier that
// cannot fail would make the whole integration suite vacuous.
func TestVerifiersCatchCorruption(t *testing.T) {
	t.Run("HT-droppedChain", func(t *testing.T) {
		k := NewHashTable(HashTableConfig{Items: 512, Buckets: 64, CTAs: 2, CTAThreads: 64})
		w := goldenMemory(t, k)
		// heads base is params[4]
		heads := k.Launch.Params[4]
		w[heads] = 0xFFFFFFFF // empty out bucket 0's chain
		if err := k.Verify(w); err == nil {
			t.Fatal("verifier must catch a dropped chain")
		}
	})
	t.Run("HT-doubleLink", func(t *testing.T) {
		k := NewHashTable(HashTableConfig{Items: 512, Buckets: 64, CTAs: 2, CTAThreads: 64})
		w := goldenMemory(t, k)
		nexts := k.Launch.Params[5]
		// Create a self-loop.
		w[nexts] = 0
		heads := k.Launch.Params[4]
		keys := k.Launch.Params[2]
		w[heads+w[keys]%64] = 0
		if err := k.Verify(w); err == nil {
			t.Fatal("verifier must catch cycles/double links")
		}
	})
	t.Run("ATM-lostMoney", func(t *testing.T) {
		k := NewATM(256, 64, 2, 64)
		w := goldenMemory(t, k)
		bal := k.Launch.Params[5]
		w[bal] -= 1
		if err := k.Verify(w); err == nil || !strings.Contains(err.Error(), "balance") {
			t.Fatalf("verifier must catch a lost unit: %v", err)
		}
	})
	t.Run("ATM-heldLock", func(t *testing.T) {
		k := NewATM(256, 64, 2, 64)
		w := goldenMemory(t, k)
		locks := k.Launch.Params[4]
		w[locks+3] = 1
		if err := k.Verify(w); err == nil || !strings.Contains(err.Error(), "lock") {
			t.Fatalf("verifier must catch a held lock: %v", err)
		}
	})
	t.Run("DS-unsolved", func(t *testing.T) {
		k := NewClothDS(256, 64, 2, 64)
		w := goldenMemory(t, k)
		done := k.Launch.Params[5]
		w[done+7] = 0
		if err := k.Verify(w); err == nil || !strings.Contains(err.Error(), "not solved") {
			t.Fatalf("verifier must catch an unsolved constraint: %v", err)
		}
	})
	t.Run("DS-driftedSum", func(t *testing.T) {
		k := NewClothDS(256, 64, 2, 64)
		w := goldenMemory(t, k)
		pos := k.Launch.Params[4]
		w[pos+5] += 3
		if err := k.Verify(w); err == nil || !strings.Contains(err.Error(), "conserved") {
			t.Fatalf("verifier must catch sum drift: %v", err)
		}
	})
	t.Run("TSP-wrongBest", func(t *testing.T) {
		k := NewTSP(128, 16, 2, 64)
		w := goldenMemory(t, k)
		best := k.Launch.Params[3]
		w[best]++
		if err := k.Verify(w); err == nil || !strings.Contains(err.Error(), "best") {
			t.Fatalf("verifier must catch a wrong optimum: %v", err)
		}
	})
	t.Run("TB-lostBody", func(t *testing.T) {
		k := NewBHTB(512, 5, 2, 64)
		w := goldenMemory(t, k)
		child := k.Launch.Params[4]
		w[child] = 0xFFFFFFFF
		if err := k.Verify(w); err == nil {
			t.Fatal("verifier must catch dropped bodies")
		}
	})
	t.Run("TB-countMismatch", func(t *testing.T) {
		k := NewBHTB(512, 5, 2, 64)
		w := goldenMemory(t, k)
		cnt := k.Launch.Params[6]
		w[cnt+2]++
		if err := k.Verify(w); err == nil || !strings.Contains(err.Error(), "count") {
			t.Fatalf("verifier must catch aggregate/chain mismatch: %v", err)
		}
	})
	t.Run("ST-misplacedLeaf", func(t *testing.T) {
		k := NewBHST(1023, 2, 64)
		w := goldenMemory(t, k)
		out := k.Launch.Params[3]
		w[out], w[out+1] = w[out+1], w[out]
		if err := k.Verify(w); err == nil {
			t.Fatal("verifier must catch misordered output")
		}
	})
	t.Run("NW1-wrongCell", func(t *testing.T) {
		k := NewNW(1, 64, 64)
		w := goldenMemory(t, k)
		matrix := k.Launch.Params[1]
		w[matrix+65*30+17] += 2
		if err := k.Verify(w); err == nil {
			t.Fatal("verifier must catch a wrong DP cell")
		}
	})
	t.Run("VECADD-wrongSum", func(t *testing.T) {
		k := NewVecAdd(512, 1, 64)
		w := goldenMemory(t, k)
		c := k.Launch.Params[3]
		w[c+100]++
		if err := k.Verify(w); err == nil {
			t.Fatal("verifier must catch a wrong element")
		}
	})
}

// TestSuiteShapes sanity-checks suite composition and metadata.
func TestSuiteShapes(t *testing.T) {
	syncSuite := SyncSuite()
	if len(syncSuite) != 8 {
		t.Fatalf("sync suite size = %d, want the paper's 8 kernels", len(syncSuite))
	}
	order := []string{"TB", "ST", "DS", "ATM", "HT", "TSP", "NW1", "NW2"}
	for i, k := range syncSuite {
		if k.Name != order[i] {
			t.Errorf("suite[%d] = %s, want %s (paper's Figure 2 order)", i, k.Name, order[i])
		}
		if k.Class != ClassSync {
			t.Errorf("%s should be ClassSync", k.Name)
		}
		if len(k.Launch.Prog.TrueSIBs) == 0 {
			t.Errorf("%s has no ground-truth SIB annotation", k.Name)
		}
		if k.Verify == nil || k.Desc == "" {
			t.Errorf("%s missing verifier or description", k.Name)
		}
	}
	for _, k := range SyncFreeSuite() {
		if k.Class != ClassSyncFree {
			t.Errorf("%s should be ClassSyncFree", k.Name)
		}
		if len(k.Launch.Prog.TrueSIBs) != 0 {
			t.Errorf("sync-free kernel %s has a SIB annotation", k.Name)
		}
	}
	if _, err := ByName("HT"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("missing"); err == nil {
		t.Error("unknown name must error")
	}
	if len(Names()) != len(syncSuite)+len(SyncFreeSuite()) {
		t.Error("Names() incomplete")
	}
}
