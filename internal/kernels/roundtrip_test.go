package kernels

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"warpsched/internal/isa"
)

// TestAssemblyRoundTrip re-parses the textual assembly of every registered
// kernel and requires the resulting program to be instruction-for-
// instruction identical to the built one. This pins Assembly and Parse to
// each other: any operand, annotation, guard or reconvergence point that
// one side emits and the other drops shows up as a mismatch here.
func TestAssemblyRoundTrip(t *testing.T) {
	for _, k := range allRegistered() {
		t.Run(k.Name, func(t *testing.T) {
			p := k.Launch.Prog
			p2, err := isa.Parse(p.Name, p.Assembly())
			if err != nil {
				t.Fatalf("Parse(Assembly()) failed: %v", err)
			}
			if len(p2.Code) != len(p.Code) {
				t.Fatalf("round trip changed length: %d -> %d", len(p.Code), len(p2.Code))
			}
			for pc := range p.Code {
				if !reflect.DeepEqual(p2.Code[pc], p.Code[pc]) {
					t.Errorf("pc %d differs:\n built: %s\nparsed: %s",
						pc, isa.Disasm(&p.Code[pc]), isa.Disasm(&p2.Code[pc]))
				}
			}
			if len(p2.TrueSIBs) != len(p.TrueSIBs) {
				t.Fatalf("round trip changed TrueSIBs: %v -> %v", p.TrueSIBs, p2.TrueSIBs)
			}
			for i := range p.TrueSIBs {
				if p2.TrueSIBs[i] != p.TrueSIBs[i] {
					t.Fatalf("round trip changed TrueSIBs: %v -> %v", p.TrueSIBs, p2.TrueSIBs)
				}
			}
		})
	}
}

// TestAssemblyPinned pins the FNV-64a of every registered variant's
// Assembly() text. Those bytes are the program half of exp.ContentKey,
// so any drift in the formatter — an operand order, an annotation name,
// a scoped !nolint — would silently re-key every store and journal
// entry. The literals were read before the syntax moved into one table
// shared by Parse, Assembly and Disasm.
func TestAssemblyPinned(t *testing.T) {
	want := map[string]string{
		"TB/full": "bf0ce15161fb8c6a", "ST/full": "070e7a794b3ca8b5",
		"DS/full": "738371fbd5fc4187", "ATM/full": "1ffbcd4517716aea",
		"HT/full": "80b042e043bdcb5e", "TSP/full": "c469e1b803c3dda7",
		"NW1/full": "ba96b5a9d10b59da", "NW2/full": "e0f141ecc6d8a005",
		"KMEANS/full": "9abce662cfdfcd52", "VECADD/full": "90873b98a2a1b905",
		"REDUCE/full": "e59b5560cfc5ddcc", "MS/full": "bf3fa66d4d5313e0",
		"HL/full": "0d132df93264eeba", "STENCIL/full": "85504321b9d683c6",
		"BFS/full": "cf03f992d10e3536", "HOTSPOT/full": "8a3edda79d539063",
		"PATHFINDER/full": "11c76c1ff7b0a7be", "BACKPROP/full": "270c007fd324c351",
		"SRAD/full": "b8a639a9490ce5ff", "LUD/full": "917d3a6a6918d819",
		"NN/full": "376743f3f2edbada", "GAUSSIAN/full": "55be3d9a746289ef",

		"TB/quick": "6f9b1cd149d0acff", "ST/quick": "e45af63e14c42d88",
		"DS/quick": "738371fbd5fc4187", "ATM/quick": "1ffbcd4517716aea",
		"HT/quick": "80b042e043bdcb5e", "TSP/quick": "c469e1b803c3dda7",
		"NW1/quick": "8c0ed398c831b10a", "NW2/quick": "cecd7612f5d871a7",
		"KMEANS/quick": "9abce662cfdfcd52", "VECADD/quick": "90873b98a2a1b905",
		"REDUCE/quick": "e59b5560cfc5ddcc", "MS/quick": "bf3fa66d4d5313e0",
		"HL/quick": "0d132df93264eeba", "STENCIL/quick": "85504321b9d683c6",
		"BFS/quick": "cf03f992d10e3536", "HOTSPOT/quick": "8a3edda79d539063",
		"PATHFINDER/quick": "11c76c1ff7b0a7be", "BACKPROP/quick": "270c007fd324c351",
		"SRAD/quick": "b8a639a9490ce5ff", "LUD/quick": "917d3a6a6918d819",
		"NN/quick": "376743f3f2edbada", "GAUSSIAN/quick": "55be3d9a746289ef",
	}
	seen := 0
	for i, set := range [][]*Kernel{SyncSuite(), SyncFreeSuite(), QuickSyncSuite(), QuickSyncFreeSuite()} {
		scale := "full"
		if i >= 2 {
			scale = "quick"
		}
		for _, k := range set {
			id := k.Name + "/" + scale
			h := fnv.New64a()
			h.Write([]byte(k.Launch.Prog.Assembly()))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != want[id] {
				t.Errorf("%s: Assembly() hash = %s, want %s", id, got, want[id])
			}
			seen++
		}
	}
	if seen != len(want) {
		t.Errorf("%d registered variants, %d pinned", seen, len(want))
	}
}

// TestInputsPinned pins the FNV-64a of every registered variant's initial
// memory image: Setup into a fresh MemWords slice, hashed as little-endian
// words. Those bytes are what every simulated statistic starts from, and
// no content key covers them. The literals were read before constructors
// left input synthesis to the first launch.
func TestInputsPinned(t *testing.T) {
	want := map[string]string{
		"TB/full": "81250d0bbcfd9507", "ST/full": "3a628c59a390f0dd",
		"DS/full": "a0312250eb451b3a", "ATM/full": "154683081365b32e",
		"HT/full": "ef3959156d41d72d", "TSP/full": "73a42331c293f2b1",
		"NW1/full": "a513177fb8a29dc7", "NW2/full": "047a5e8c0e3a1614",
		"KMEANS/full": "fcc21c0fa30d8521", "VECADD/full": "c5c79f5b073e8b25",
		"REDUCE/full": "8589b72ea9f1b63e", "MS/full": "6a3012c1a4863e4a",
		"HL/full": "fd9a5e3966d16301", "STENCIL/full": "74c1ef7194319d89",
		"BFS/full": "7aae39330bd99a39", "HOTSPOT/full": "17a1b7a126c8cda7",
		"PATHFINDER/full": "8827caaa8c174af0", "BACKPROP/full": "c2ce9aa1e909b52c",
		"SRAD/full": "ddac5b7153ca0521", "LUD/full": "aff7b32ed348705b",
		"NN/full": "0e561d153bae0eb8", "GAUSSIAN/full": "6ae619d8371a5135",

		"TB/quick": "7585f641d8a445ed", "ST/quick": "064151e20a9f702d",
		"DS/quick": "a71d35a1a9a17485", "ATM/quick": "02b3a2b5725583a2",
		"HT/quick": "1ee678d9987d382c", "TSP/quick": "34d1c44a34c1afd3",
		"NW1/quick": "82eb383ba35cf024", "NW2/quick": "bd5e35446f02bc27",
		"KMEANS/quick": "ec16b9b7fcd8a546", "VECADD/quick": "915b520d1474d325",
		"REDUCE/quick": "c4a614ea6f03d0db", "MS/quick": "e2e773ececeab239",
		"HL/quick": "2b3cbf29201c221c", "STENCIL/quick": "98c7e00df54388dc",
		"BFS/quick": "f663ce00ead6aebc", "HOTSPOT/quick": "af458fe04edab465",
		"PATHFINDER/quick": "7550b89f0f8018f6", "BACKPROP/quick": "e8bd08e84b6a8725",
		"SRAD/quick": "ccef01de396c58d7", "LUD/quick": "ed5efcd948720282",
		"NN/quick": "df1a5a92fe180c05", "GAUSSIAN/quick": "14f137d4d1b750e6",
	}
	all := allRegistered()
	if len(all) != len(want) {
		t.Errorf("%d registered variants, %d pinned", len(all), len(want))
	}
	for i, k := range all {
		id := k.Name + "/full"
		if i >= len(all)/2 {
			id = k.Name + "/quick"
		}
		w := make([]uint32, k.Launch.MemWords)
		k.Launch.Setup(w)
		h := fnv.New64a()
		buf := make([]byte, 0, 4*len(w))
		for _, x := range w {
			buf = binary.LittleEndian.AppendUint32(buf, x)
		}
		h.Write(buf)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want[id] {
			t.Errorf("%s: initial image hash = %s, want %s", id, got, want[id])
		}
	}
}
