package metrics

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The encoding/json reference types: the same layouts with no methods,
// so json.Unmarshal decodes them by reflection alone.
type (
	plainManifest Manifest
	plainRecord   RunRecord
)

const (
	quickPath    = "../exp/testdata/golden/quick.json"
	fullPath     = "../report/testdata/full.json"
	warpsimdPath = "testdata/warpsimd.json" // one warpsimd result: per-SM counters
)

func readTestFile(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// canonicalSeeds returns bytes in the canonical form, as the tools write
// them: the golden quick manifest, every 97th run of the full-scale one,
// a warpsimd result manifest and a journal record (compact, no wall
// time).
func canonicalSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	quick := readTestFile(tb, quickPath)
	var full Manifest
	if err := json.Unmarshal(readTestFile(tb, fullPath), &full); err != nil {
		tb.Fatal(err)
	}
	slice := full
	slice.Runs = nil
	for i := 0; i < len(full.Runs); i += 97 {
		slice.Runs = append(slice.Runs, full.Runs[i])
	}
	sliceData, err := json.MarshalIndent(&slice, "", " ")
	if err != nil {
		tb.Fatal(err)
	}
	rec := full.Runs[0]
	rec.WallMS = 0
	recData, err := json.Marshal(rec)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"quick":    quick,
		"full":     sliceData,
		"warpsimd": readTestFile(tb, warpsimdPath),
		"journal":  recData,
	}
}

// Small records the one-pass decoder reads itself — canonical, with a
// non-ASCII error as a watchdog abort writes it, and with a repeated
// scalar, which overwrites the first as in encoding/json — and the
// hand-made departures from the canonical form.
const seedRecord = `{"exp":"fig3","kernel":"HT","gpu":"GTX480/2SM","sched":"GTO","bows":"off",` +
	`"variant":"00ff","cycles":1000,"wall_ms":1.5,"counters":{"a.b":1,"c":-2},"derived":{"x":0.25}}`

var onePassRecords = []string{
	seedRecord,
	strings.Replace(seedRecord, `"cycles"`, `"err":"stuck — w4","cycles"`, 1),
	strings.Replace(seedRecord, `"cycles":1000`, `"cycles":1,"cycles":2`, 1),
}

var offFormSeeds = []string{
	strings.Replace(seedRecord, `"HT"`, `"H\u0054"`, 1),                          // escaped string
	strings.Replace(seedRecord, `"kernel"`, `"Kernel"`, 1),                       // case-folded field
	strings.Replace(seedRecord, `"exp"`, `"extra":1,"exp"`, 1),                   // unknown field
	strings.Replace(seedRecord, `{"a.b":1,"c":-2}`, `null`, 1),                   // null counters
	strings.Replace(seedRecord, `1000`, `1e3`, 1),                                // exponent count
	strings.Replace(seedRecord, `1000`, `1.0`, 1),                                // fractional count
	strings.Replace(seedRecord, `1000`, `18446744073709551616`, 1),               // 2⁶⁴
	strings.Replace(seedRecord, `"derived":{"x":0.25}`, `"counters":{"d":4}`, 1), // repeated object
	strings.Replace(seedRecord, `"HT"`, "\"H\xffT\"", 1),                         // invalid UTF-8
	seedRecord + "x", // trailing garbage
	`{"schema":2,"tool":"t","wall_ms":0,"runs":[null]}`,                  // null run
	`{"schema":2,"tool":"t","config":{"n":null},"wall_ms":0,"runs":[]}`,  // null config value
	`{"schema":2,"tool":"t","wall_ms":0,"runs":[` + seedRecord + `]} {}`, // two values
}

// headlineManifest is the layout DecodeHeadline is held to.
type headlineManifest struct {
	Runs []struct {
		Cycles int64  `json:"cycles"`
		Err    string `json:"err"`
	} `json:"runs"`
}

// Manifests the headline reader takes in one pass although they are not
// the tools' output — what it skips may be any valid value — and the
// ones it sends to encoding/json: a name that encoding/json would match
// to runs, cycles or err case-insensitively, a repeated runs member
// (encoding/json decodes the second into the first one's elements), a
// null where it reads a value, and a skipped value nested past its
// depth bound (and past encoding/json's, which is an error).
var (
	headlineOnePass = []string{
		`{"schema":2,"tool":"t","config":{"n":null,"a":[1,{"b":[]}]},"wall_ms":0,"runs":[]}`,
		`{"runs":[{"cycles":7,"err":"stuck — w4","counters":{"a":1,"a":"x","b":true}},{"cycles":8}]}`,
		`{"runs":[{"cycles":1,"cycles":2,"err":"a","err":""}]}`,
		`{"wall_ms":-1.5e-3,"config_hash":"x", "runs" : [ { } ] }`,
	}
	headlineOffForm = []string{
		`null`,
		`{"RUNS":[{"cycles":1}]}`,
		`{"runs":[{"Cycles":1}]}`,
		`{"runs":[{"cycles":1,"ERR":"x"}]}`,
		`{"runs":[{"cycles":5,"err":"x"}],"runs":[{}]}`,
		`{"runs":[],"runs":[{"cycles":3}]}`,
		`{"runs":[{"cycles":1,"err":null}]}`,
		`{"runs":[{"cycles":null}]}`,
		`{"runs":[{"cycles":1,"err":"a\u0062"}]}`,
		`{"schema":` + strings.Repeat("[", 65) + strings.Repeat("]", 65) + `,"runs":[{"cycles":1}]}`,
		`{"schema":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `,"runs":[{"cycles":1}]}`,
		`{"runs":[{"cycles":1}]} x`,
	}
)

// FuzzManifestDecode holds the one-pass decoder to encoding/json: for
// every input, parseManifest and DecodeRunRecord fail exactly when
// json.Unmarshal into the method-free layouts fails, and otherwise
// produce reflect.DeepEqual values; DecodeHeadline fails exactly when
// json.Unmarshal into headlineManifest fails, and otherwise agrees with
// it on the run count and on the first run's cycles and err.
func FuzzManifestDecode(f *testing.F) {
	for _, seed := range canonicalSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range append(append(onePassRecords, offFormSeeds...), append(headlineOnePass, headlineOffForm...)...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		var wantM plainManifest
		wantErr := json.Unmarshal(data, &wantM)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("manifest: error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual((*plainManifest)(m), &wantM) {
			t.Fatalf("manifest: decoded %+v, encoding/json decoded %+v", *m, wantM)
		}
		r, err := DecodeRunRecord(data)
		var wantR plainRecord
		wantErr = json.Unmarshal(data, &wantR)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("record: error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(plainRecord(r), wantR) {
			t.Fatalf("record: decoded %+v, encoding/json decoded %+v", r, wantR)
		}
		h, err := DecodeHeadline(data)
		var wantH headlineManifest
		wantErr = json.Unmarshal(data, &wantH)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("headline: error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		want := Headline{Runs: len(wantH.Runs)}
		if want.Runs > 0 {
			want.Cycles, want.Err = wantH.Runs[0].Cycles, wantH.Runs[0].Err
		}
		if h != want {
			t.Fatalf("headline: decoded %+v, encoding/json decoded %+v", h, want)
		}
	})
}

// freshWarpsimdManifest re-encodes the warpsimd result manifest the way
// warpsimd's buildResult encodes a fresh one: NewManifest, Add, Sort,
// MarshalIndent and a newline.
func freshWarpsimdManifest(tb testing.TB) []byte {
	tb.Helper()
	old, err := parseManifest(readTestFile(tb, warpsimdPath))
	if err != nil || len(old.Runs) != 1 {
		tb.Fatalf("warpsimd manifest: %v (%d runs)", err, len(old.Runs))
	}
	m := NewManifest("warpsimd", old.Config)
	if err := m.Add(old.Runs[0]); err != nil {
		tb.Fatal(err)
	}
	m.Sort()
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		tb.Fatal(err)
	}
	return append(data, '\n')
}

// onePassHeadline reports whether DecodeHeadline reads data without
// encoding/json.
func onePassHeadline(data []byte) bool {
	d := decoder{data: data}
	_, ok := d.headline(new(Headline))
	return ok && d.end()
}

// TestCanonicalFormDecodesInOnePass pins the selection: what the tools
// write never reaches encoding/json, and every departure from the
// canonical form does. For the headline reader the tools' output is
// every manifest seed, all of full.json, and a warpsimd manifest as a
// fresh job's result encodes it.
func TestCanonicalFormDecodesInOnePass(t *testing.T) {
	seeds := canonicalSeeds(t)
	seeds["fullFile"] = readTestFile(t, fullPath)
	for name, data := range seeds {
		d := decoder{data: data}
		var ok bool
		if name == "journal" {
			ok = d.record(new(RunRecord)) && d.end()
		} else {
			ok = d.manifest(new(Manifest)) && d.end()
			if !onePassHeadline(data) {
				t.Errorf("%s: the headline reader left the one-pass path", name)
			}
		}
		if !ok {
			t.Errorf("%s: the one-pass decoder stopped at byte %d of %d", name, d.pos, len(data))
		}
	}
	if !onePassHeadline(freshWarpsimdManifest(t)) {
		t.Error("fresh warpsimd manifest: the headline reader left the one-pass path")
	}
	for i, seed := range append(headlineOnePass, headlineOffForm...) {
		if got, want := onePassHeadline([]byte(seed)), i < len(headlineOnePass); got != want {
			t.Errorf("headline reader took %.80q in one pass: %v, want %v", seed, got, want)
		}
	}
	for i, seed := range append(onePassRecords, offFormSeeds...) {
		d := decoder{data: []byte(seed)}
		ok := d.record(new(RunRecord)) && d.end()
		d = decoder{data: []byte(seed)}
		okM := d.manifest(new(Manifest)) && d.end()
		if want := i < len(onePassRecords); ok != want || okM {
			t.Errorf("one pass took %q as a record %v, as a manifest %v; want %v, false", seed, ok, okM, want)
		}
	}
}

// BenchmarkReadFile reads the golden quick manifest (48 runs) and the
// full-scale one (857 runs).
func BenchmarkReadFile(b *testing.B) {
	for _, leg := range []struct{ name, path string }{{"quick", quickPath}, {"full", fullPath}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadFile(leg.path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeHeadline reads the headline of a warpsimd result
// manifest (6 KB of per-SM counters), as a disk hit does.
func BenchmarkDecodeHeadline(b *testing.B) {
	data := readTestFile(b, warpsimdPath)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if h, err := DecodeHeadline(data); err != nil || h.Runs != 1 {
			b.Fatal(h, err)
		}
	}
}
