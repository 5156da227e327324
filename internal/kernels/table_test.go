package kernels

import (
	"reflect"
	"testing"
)

// geom is a kernel's launch geometry and memory size.
type geom struct{ ctas, threads, memWords int }

func geomOf(k *Kernel) geom {
	return geom{k.Launch.GridCTAs, k.Launch.CTAThreads, k.Launch.MemWords}
}

// pinned is the suite as it was when four hand-written lists built it
// (order, class, and each instance's launch geometry and MemWords, taken
// from the commit before the table existed).
var pinned = []struct {
	name        string
	class       Class
	full, quick geom
}{
	{"TB", ClassSync, geom{8, 128, 25664}, geom{4, 128, 12864}},
	{"ST", ClassSync, geom{32, 128, 57407}, geom{16, 128, 28735}},
	{"DS", ClassSync, geom{48, 128, 37696}, geom{24, 128, 9536}},
	{"ATM", ClassSync, geom{48, 128, 37440}, geom{24, 128, 9536}},
	{"HT", ClassSync, geom{48, 128, 25152}, geom{24, 128, 12608}},
	{"TSP", ClassSync, geom{48, 128, 4194}, geom{24, 128, 2402}},
	{"NW1", ClassSync, geom{4, 128, 264304}, geom{2, 128, 66664}},
	{"NW2", ClassSync, geom{4, 128, 264304}, geom{2, 128, 66664}},
	{"KMEANS", ClassSyncFree, geom{8, 128, 32832}, geom{2, 64, 4160}},
	{"VECADD", ClassSyncFree, geom{16, 128, 98368}, geom{2, 64, 6208}},
	{"REDUCE", ClassSyncFree, geom{64, 256, 32896}, geom{8, 128, 2120}},
	{"MS", ClassSyncFree, geom{8, 128, 262208}, geom{2, 64, 131136}},
	{"HL", ClassSyncFree, geom{8, 128, 33856}, geom{2, 64, 8384}},
	{"STENCIL", ClassSyncFree, geom{8, 128, 32832}, geom{2, 64, 4160}},
	{"BFS", ClassSyncFree, geom{1, 256, 6272}, geom{1, 128, 2688}},
	{"HOTSPOT", ClassSyncFree, geom{4, 128, 8256}, geom{2, 64, 2112}},
	{"PATHFINDER", ClassSyncFree, geom{1, 256, 16960}, geom{1, 128, 4416}},
	{"BACKPROP", ClassSyncFree, geom{8, 128, 132288}, geom{2, 128, 16768}},
	{"SRAD", ClassSyncFree, geom{4, 128, 16448}, geom{2, 64, 4160}},
	{"LUD", ClassSyncFree, geom{1, 256, 1120}, geom{1, 128, 664}},
	{"NN", ClassSyncFree, geom{8, 128, 33889}, geom{2, 128, 4449}},
	{"GAUSSIAN", ClassSyncFree, geom{4, 128, 4672}, geom{2, 64, 2112}},
}

// TestSuiteTable: every row's name and class are those of both kernels it
// builds, the four suites are the pinned kernels in the pinned order, and
// ByName and Names agree with the table.
func TestSuiteTable(t *testing.T) {
	if len(table) != len(pinned) {
		t.Fatalf("table has %d rows, want %d", len(table), len(pinned))
	}
	for i, r := range table {
		p := pinned[i]
		if r.name != p.name || r.class != p.class {
			t.Errorf("row %d is %s/%s, want %s/%s", i, r.name, r.class, p.name, p.class)
		}
		for _, v := range []struct {
			scale string
			k     *Kernel
			want  geom
		}{{"full", r.full(), p.full}, {"quick", r.quick(), p.quick}} {
			if v.k.Name != r.name || v.k.Class != r.class {
				t.Errorf("row %s builds %s kernel %s/%s, want class %s", r.name, v.scale, v.k.Name, v.k.Class, r.class)
			}
			if got := geomOf(v.k); got != v.want {
				t.Errorf("%s %s: geometry %+v, want %+v", r.name, v.scale, got, v.want)
			}
		}
	}

	for _, s := range []struct {
		label      string
		sync, free []*Kernel
		quick      bool
	}{
		{"full", SyncSuite(), SyncFreeSuite(), false},
		{"quick", QuickSyncSuite(), QuickSyncFreeSuite(), true},
	} {
		if len(s.sync) != 8 || len(s.free) != 14 {
			t.Fatalf("%s suites have %d+%d kernels, want 8+14", s.label, len(s.sync), len(s.free))
		}
		for i, k := range append(s.sync, s.free...) {
			want := pinned[i].full
			if s.quick {
				want = pinned[i].quick
			}
			if k.Name != pinned[i].name || geomOf(k) != want {
				t.Errorf("%s suite position %d is %s %+v, want %s %+v", s.label, i, k.Name, geomOf(k), pinned[i].name, want)
			}
		}
	}
	var names []string
	for _, p := range pinned {
		names = append(names, p.name)
		k, err := ByName(p.name)
		if err != nil {
			t.Errorf("ByName(%q): %v", p.name, err)
			continue
		}
		if k.Name != p.name || geomOf(k) != p.full {
			t.Errorf("ByName(%q) built %s %+v, want the full-size instance %+v", p.name, k.Name, geomOf(k), p.full)
		}
	}
	if got := Names(); !reflect.DeepEqual(got, names) {
		t.Errorf("Names() = %v, want %v", got, names)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("ByName of an unknown name must fail")
	}
}
