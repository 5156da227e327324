package exp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"warpsched/internal/config"
	"warpsched/internal/kernels"
	"warpsched/internal/metrics"
	"warpsched/internal/sim"
)

// variantStruct is the reference appendVariant is held to: the value
// VariantHash hashed through metrics.HashJSON before it wrote its bytes
// itself.
func variantStruct(sp Spec) any {
	var tage *config.TAGE
	var det config.DetectorKind
	if sp.Detector == config.DetectTAGE {
		det, tage = sp.Detector, &sp.TAGE
	}
	var wasp *config.WaSP
	if sp.Sched == config.WASP {
		wasp = &sp.WaSP
	}
	l := &sp.Kernel.Launch
	return struct {
		GPU      config.GPU
		Sched    config.SchedulerKind
		BOWS     config.BOWS
		DDOS     config.DDOS
		Detector config.DetectorKind `json:",omitempty"`
		TAGE     *config.TAGE        `json:",omitempty"`
		WaSP     *config.WaSP        `json:",omitempty"`
		Kernel   string
		Grid     int
		Threads  int
		MemWords int
		Params   []uint32
	}{sp.GPU, sp.Sched, sp.BOWS, sp.DDOS, det, tage, wasp, sp.Kernel.Name,
		l.GridCTAs, l.CTAThreads, l.MemWords, l.Params}
}

// checkVariant requires appendVariant to write json.Marshal's bytes, or
// to panic where json.Marshal fails, and VariantHash to be HashJSON's
// value.
func checkVariant(t *testing.T, sp Spec) {
	t.Helper()
	want, wantErr := json.Marshal(variantStruct(sp))
	var got []byte
	panicked := func() (p any) {
		defer func() { p = recover() }()
		got = appendVariant(nil, &sp)
		return nil
	}()
	switch {
	case wantErr != nil:
		if panicked == nil {
			t.Fatalf("json.Marshal fails (%v), appendVariant wrote %s", wantErr, got)
		}
		return
	case panicked != nil:
		t.Fatalf("appendVariant panicked (%v), json.Marshal wrote %s", panicked, want)
	case !bytes.Equal(got, want):
		t.Fatalf("appendVariant wrote\n%s\njson.Marshal writes\n%s", got, want)
	}
	if got, want := VariantHash(sp), metrics.HashJSON(variantStruct(sp)); got != want {
		t.Fatalf("VariantHash = %s, HashJSON gives %s", got, want)
	}
}

// TestVariantBytesMatchJSON: every registered kernel, full-size and
// quick, on both machines under every scheduler, three back-off settings
// and both detectors.
func TestVariantBytesMatchJSON(t *testing.T) {
	var ks []*kernels.Kernel
	for _, suite := range [][]*kernels.Kernel{kernels.SyncSuite(), kernels.SyncFreeSuite(),
		kernels.QuickSyncSuite(), kernels.QuickSyncFreeSuite()} {
		ks = append(ks, suite...)
	}
	n := 0
	for _, gpu := range []config.GPU{config.GTX480(), config.GTX1080Ti().Scaled(2)} {
		for _, k := range ks {
			for _, sched := range config.AllSchedulers {
				for _, bows := range []config.BOWS{{Mode: config.BOWSOff}, config.DefaultBOWS(), config.FixedBOWS(5000)} {
					for _, det := range []config.DetectorKind{"", config.DetectTAGE} {
						checkVariant(t, Spec{GPU: gpu, Sched: sched, BOWS: bows, DDOS: config.DefaultDDOS(),
							Detector: det, TAGE: config.DefaultTAGE(), WaSP: config.DefaultWaSP(), Kernel: k})
						n++
					}
				}
			}
		}
	}
	t.Logf("%d specs byte-equal", n)
}

// TestContentKeyMatchesFormat: ContentKey is FNV-1a over Assembly, the
// variant hash and the engine version, as fmt formatted them.
func TestContentKeyMatchesFormat(t *testing.T) {
	for _, k := range kernels.QuickSyncSuite() {
		sp := Spec{GPU: config.GTX480().Scaled(2), Sched: config.GTO, BOWS: config.DefaultBOWS(),
			DDOS: config.DefaultDDOS(), Kernel: k}
		h := fnv.New64a()
		h.Write([]byte(k.Launch.Prog.Assembly()))
		want := fmt.Sprintf("%016x-%s-v%d", h.Sum64(), VariantHash(sp), sim.Version)
		if got := ContentKey(sp); got != want {
			t.Errorf("%s: ContentKey = %s, want %s", k.Name, got, want)
		}
	}
}

// FuzzVariantHash holds appendVariant to json.Marshal over the values a
// spec can carry: strings that need escaping (quotes, control bytes,
// '<', '>' and '&', U+2028, invalid UTF-8) in the kernel, machine and
// policy names, floats at the exponent-form cut-offs, NaN and the
// infinities (both must fail), both detectors, WASP and not, and nil,
// empty and filled parameter lists.
func FuzzVariantHash(f *testing.F) {
	for _, name := range []string{"HT", "", "inline", `q"b\s`, "<a&b>", "\xe2\x80\xa8\xe2\x80\xa9",
		"\xff\xfe", "\x00\x1f\x7f", "\b\f\n\r\t", "caf\xc3\xa9 \xf0\x9f\x98\x80"} {
		f.Add(name, "GTX480", "GTO", "ddos", "XOR", false, int64(15), 0.5, 0.8, []byte{1, 0, 0, 0}, false)
	}
	f.Add("TB", "pascal", "WASP", "static", "MODULO", true, int64(-1), 1e-7, 1e21, []byte{}, false)
	f.Add("ST", "GTX480", "CAWA", "off", "XOR", true, int64(1<<62), 5e-324, math.Copysign(0, -1), []byte(nil), true)
	f.Add("ATM", "GTX480", "LRR", "ddos", "XOR", false, int64(0), 9.999999e-7, 1e20, []byte{9, 9}, false)
	f.Fuzz(func(t *testing.T, kernel, gpuName, sched, mode, hash string, tage bool, n int64,
		frac1, frac2 float64, params []byte, nilParams bool) {
		sp := Spec{GPU: config.GTX480(), Sched: config.SchedulerKind(sched),
			BOWS: config.DefaultBOWS(), DDOS: config.DefaultDDOS(),
			TAGE: config.DefaultTAGE(), WaSP: config.DefaultWaSP(),
			Kernel: &kernels.Kernel{Name: kernel, Launch: sim.Launch{
				GridCTAs: int(n), CTAThreads: int(n >> 3), MemWords: int(-n)}}}
		sp.GPU.Name = gpuName
		sp.GPU.MaxCycles, sp.GPU.Mem.L2Lat, sp.GPU.Mem.QueueLocks = n, n^0x5555, n&1 == 1
		sp.BOWS.Mode, sp.BOWS.Frac1, sp.BOWS.Frac2, sp.BOWS.DelayLimit = config.BOWSMode(mode), frac1, frac2, n
		sp.DDOS.Hash, sp.DDOS.TimeShare, sp.DDOS.TimeShareEpoch = config.HashKind(hash), tage, -n
		if tage {
			sp.Detector = config.DetectTAGE
			sp.TAGE.UsefulDecayPeriod = int(n)
		} else {
			sp.Detector = config.DetectorKind(mode)
		}
		sp.WaSP.RotatePeriod = n
		if !nilParams {
			sp.Kernel.Launch.Params = []uint32{}
			for len(params) >= 4 {
				sp.Kernel.Launch.Params = append(sp.Kernel.Launch.Params, binary.LittleEndian.Uint32(params))
				params = params[4:]
			}
		}
		checkVariant(t, sp)
	})
}

// BenchmarkVariantHash: one registered kernel's spec under TAGE and WASP,
// the longest form.
func BenchmarkVariantHash(b *testing.B) {
	sp := Spec{GPU: config.GTX480().Scaled(2), Sched: config.WASP, BOWS: config.DefaultBOWS(),
		DDOS: config.DefaultDDOS(), Detector: config.DetectTAGE, TAGE: config.DefaultTAGE(),
		WaSP: config.DefaultWaSP(), Kernel: kernels.QuickSyncSuite()[0]}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		VariantHash(sp)
	}
}
