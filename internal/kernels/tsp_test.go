package kernels

import (
	"fmt"
	"testing"
)

// TestTSPModelMatchesReplay holds tspModel to the replay it replaced:
// every climber's cost, and the least of them, must be equal. The two
// small geometries have M² ≤ 31, so the +31 and +13 index steps wrap the
// distance matrix more than once.
func TestTSPModelMatchesReplay(t *testing.T) {
	for _, g := range []struct{ climbers, cities int }{
		{3072, 48}, // quick
		{6144, 64}, // full
		{100, 4},
		{777, 5},
	} {
		t.Run(fmt.Sprintf("%dx%d", g.climbers, g.cities), func(t *testing.T) {
			const passes = tspPasses
			cities := g.cities
			r := rng(13)
			distV := make([]uint32, cities*cities)
			for i := range distV {
				distV[i] = uint32(1 + r.Intn(1000))
			}
			// The replay NewTSP built its verifier from before tspModel.
			costOf := func(gtid int) uint32 {
				var cost uint32
				for p := 0; p < passes; p++ {
					for k := 0; k < cities; k++ {
						idx := (k*31 + gtid*7 + p*13) % (cities * cities)
						cost += distV[idx] ^ uint32(k)
					}
				}
				return cost & 0x7FFFFFFF
			}
			minCost := uint32(0x7FFFFFFF)
			for t := 0; t < g.climbers; t++ {
				if c := costOf(t); c < minCost {
					minCost = c
				}
			}

			gotCost, gotMin := tspModel(distV, cities, g.climbers)
			for gtid := 0; gtid < g.climbers; gtid++ {
				if got, want := gotCost(gtid), costOf(gtid); got != want {
					t.Fatalf("climber %d: cost %d, replay %d", gtid, got, want)
				}
			}
			if gotMin != minCost {
				t.Fatalf("minCost %d, replay %d", gotMin, minCost)
			}
		})
	}
}
