package server

import (
	"reflect"
	"strings"
	"testing"

	"warpsched/internal/analysis"
)

// identityExempt names the request fields identity leaves out: they steer
// the reply, and admission never reads them.
var identityExempt = map[string]bool{"Wait": true}

// TestIdentityCoversRequest sets every field of JobRequest and JobConfig,
// one at a time, to a non-zero value: the identity must change unless the
// field is exempt, and must not change if it is. A field added to either
// struct fails here until identity renders it or the list above names it.
func TestIdentityCoversRequest(t *testing.T) {
	base := identity(&JobRequest{})
	seen := 0
	var walk func(typ reflect.Type, path []int, name string)
	walk = func(typ reflect.Type, path []int, name string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			at, fname := append(path[:len(path):len(path)], i), name+f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, at, fname+".")
				continue
			}
			var req JobRequest
			v := reflect.ValueOf(&req).Elem().FieldByIndex(at)
			switch f.Type.Kind() {
			case reflect.String:
				v.SetString("x")
			case reflect.Int, reflect.Int64:
				v.SetInt(1)
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Slice:
				v.Set(reflect.MakeSlice(f.Type, 1, 1))
			case reflect.Pointer:
				v.Set(reflect.New(f.Type.Elem()))
			default:
				t.Fatalf("%s: kind %s is new to this test; teach it and identity", fname, f.Type.Kind())
			}
			seen++
			changed := identity(&req) != base
			switch {
			case identityExempt[fname] && changed:
				t.Errorf("%s is exempt but changes the identity", fname)
			case !identityExempt[fname] && !changed:
				t.Errorf("%s is not part of the identity and not exempt: a table hit would ignore it", fname)
			}
		}
	}
	walk(reflect.TypeOf(JobRequest{}), nil, "")
	if seen != 17 { // 9 of JobRequest + 8 of JobConfig
		t.Errorf("walked %d fields, want 17: the walk itself has drifted", seen)
	}
}

// TestIdentityExact: the encoding is self-delimiting, so text cannot move
// between neighbouring fields, and nil differs from empty and from zero.
func TestIdentityExact(t *testing.T) {
	zero := int64(0)
	reqs := []*JobRequest{
		{Kernel: "ab", Source: "c"},
		{Kernel: "a", Source: "bc"},
		{Kernel: "a", Source: "b", Name: "c"},
		{Source: "s"},
		{Source: "s", Params: []uint32{}},
		{Source: "s", Params: []uint32{0}},
		{Source: "s", Params: []uint32{0, 0}},
		{Source: "s", GridCTAs: 1},
		{Source: "s", CTAThreads: 1},
		{Kernel: "HT", Config: JobConfig{GPU: "a", Sched: "b"}},
		{Kernel: "HT", Config: JobConfig{GPU: "ab"}},
		{Kernel: "HT", Config: JobConfig{BOWS: "ddos"}},
		{Kernel: "HT", Config: JobConfig{BOWS: "ddos", Delay: &zero}},
		{Kernel: "HT", Config: JobConfig{BOWS: "ddos", MaxCycles: 0, SMs: 1}},
		{Kernel: "HT", Config: JobConfig{BOWS: "ddos", MaxCycles: 1}},
	}
	seen := map[string]int{}
	for i, r := range reqs {
		id := identity(r)
		if j, dup := seen[id]; dup {
			t.Errorf("requests %d and %d share an identity", j, i)
		}
		seen[id] = i
	}
}

// outcome is what an admission decided, in comparable form.
type outcome struct {
	status   int // 0 = admitted
	msg      string
	findings []analysis.Finding
	key      string
}

func freshOutcome(o Options, req *JobRequest) outcome {
	spec, rerr := o.Resolve(req)
	if rerr != nil {
		return outcome{rerr.Status, rerr.Msg, rerr.Findings, ""}
	}
	return outcome{key: CacheKey(spec)}
}

// submitOutcome submits through the server (table and all) and waits for
// the job, so the queue is empty again before the next submission.
func submitOutcome(t *testing.T, s *Server, req *JobRequest) outcome {
	t.Helper()
	j, rerr := s.Submit(req)
	if rerr != nil {
		return outcome{rerr.Status, rerr.Msg, rerr.Findings, ""}
	}
	waitDone(t, j)
	return outcome{key: j.key}
}

// differentialMatrix is four base requests (registered full and quick, a
// clean and a racy inline program), each with every request field toggled
// alone to valid and invalid values.
func differentialMatrix() map[string]*JobRequest {
	bases := map[string]func() *JobRequest{
		"full":   func() *JobRequest { return &JobRequest{Kernel: "HT", Config: JobConfig{SMs: 2}} },
		"quick":  func() *JobRequest { return &JobRequest{Kernel: "HT", Config: JobConfig{SMs: 2, Quick: true}} },
		"inline": func() *JobRequest { return inlineReq(50) },
		"racy": func() *JobRequest {
			return &JobRequest{Source: racySrc, GridCTAs: 1, CTAThreads: 64, MemWords: 64}
		},
	}
	zero, delay := int64(0), int64(64)
	mutations := map[string]func(r *JobRequest){
		"base":           func(r *JobRequest) {},
		"kernel=ST":      func(r *JobRequest) { r.Kernel = "ST" },
		"kernel=NOPE":    func(r *JobRequest) { r.Kernel = "NOPE" },
		"source=racy":    func(r *JobRequest) { r.Source = racySrc },
		"source=garbage": func(r *JobRequest) { r.Source = "frob %r1" },
		"source=unanalysable": func(r *JobRequest) {
			r.Source = "add %r1, %r2, 1\nexit\n"
		},
		"source=noisy": func(r *JobRequest) {
			if r.Source != "" {
				r.Source = "// same stream, other text\n" + r.Source
			}
		},
		"name":            func(r *JobRequest) { r.Name = "other" },
		"grid=2":          func(r *JobRequest) { r.GridCTAs = 2 },
		"grid=0":          func(r *JobRequest) { r.GridCTAs = 0 },
		"cta=96":          func(r *JobRequest) { r.CTAThreads = 96 },
		"mem=128":         func(r *JobRequest) { r.MemWords = 128 },
		"mem=huge":        func(r *JobRequest) { r.MemWords = 1 << 30 },
		"params=nil":      func(r *JobRequest) { r.Params = nil },
		"params=empty":    func(r *JobRequest) { r.Params = []uint32{} },
		"params=60":       func(r *JobRequest) { r.Params = []uint32{60} },
		"allow_unsafe":    func(r *JobRequest) { r.AllowUnsafe = true },
		"gpu=pascal":      func(r *JobRequest) { r.Config.GPU = "pascal" },
		"gpu=volta":       func(r *JobRequest) { r.Config.GPU = "volta" },
		"sms=1":           func(r *JobRequest) { r.Config.SMs = 1 },
		"sms=-1":          func(r *JobRequest) { r.Config.SMs = -1 },
		"sched=CAWA":      func(r *JobRequest) { r.Config.Sched = "CAWA" },
		"sched=FIFO":      func(r *JobRequest) { r.Config.Sched = "FIFO" },
		"sched=WASP":      func(r *JobRequest) { r.Config.Sched = "WASP" },
		"bows=ddos":       func(r *JobRequest) { r.Config.BOWS = "ddos" },
		"bows=on":         func(r *JobRequest) { r.Config.BOWS = "on" },
		"delay=&0":        func(r *JobRequest) { r.Config.Delay = &zero },
		"ddos,delay=&0":   func(r *JobRequest) { r.Config.BOWS, r.Config.Delay = "ddos", &zero },
		"ddos,delay=&64":  func(r *JobRequest) { r.Config.BOWS, r.Config.Delay = "ddos", &delay },
		"hash=MODULO":     func(r *JobRequest) { r.Config.Hash = "MODULO" },
		"hash=sha":        func(r *JobRequest) { r.Config.Hash = "sha" },
		"max_cycles=1000": func(r *JobRequest) { r.Config.MaxCycles = 1000 },
		"max_cycles=-1":   func(r *JobRequest) { r.Config.MaxCycles = -1 },
		"max_cycles=huge": func(r *JobRequest) { r.Config.MaxCycles = 1 << 60 },
		"quick":           func(r *JobRequest) { r.Config.Quick = !r.Config.Quick },
		"wait":            func(r *JobRequest) { r.Wait = true },
	}
	out := make(map[string]*JobRequest)
	for bn, base := range bases {
		for mn, mutate := range mutations {
			req := base()
			mutate(req)
			out[bn+"/"+mn] = req
		}
	}
	return out
}

// TestAdmissionTableInvisible: over the whole matrix, a server with a
// warm table and a fresh Options.Resolve + CacheKey agree on status,
// message, findings and key — for the first submission (table miss), the
// second (hit, when the first was admitted) and one made after the entry
// has been evicted by the rest of the matrix.
func TestAdmissionTableInvisible(t *testing.T) {
	opt := Options{Workers: 1, MaxJobCycles: 3000}
	s := newTestServer(t, opt)
	s.admitTable = newAdmissionTable(8 << 10) // a dozen entries: the matrix overflows it
	matrix := differentialMatrix()

	admitted := 0
	for round := 0; round < 2; round++ {
		for name, req := range matrix {
			want := freshOutcome(opt, req)
			before := s.admitTable.stats()
			for attempt := 0; attempt < 2; attempt++ {
				if got := submitOutcome(t, s, req); !reflect.DeepEqual(got, want) {
					t.Errorf("round %d, %s, submission %d:\n got %+v\nwant %+v", round, name, attempt, got, want)
				}
			}
			after := s.admitTable.stats()
			if want.status == 0 {
				admitted++
				if after.Hits == before.Hits {
					t.Errorf("round %d, %s: admitted twice in a row without a table hit", round, name)
				}
			} else if after.Entries != before.Entries || after.Hits != before.Hits {
				t.Errorf("round %d, %s: a rejection touched the table (%+v → %+v)", round, name, before, after)
			}
		}
	}
	st := s.admitTable.stats()
	if st.Evictions == 0 || st.Bytes > st.MaxBytes {
		t.Errorf("the matrix was meant to overflow the table: %+v", st)
	}
	if admitted == 0 || admitted == 2*len(matrix) {
		t.Errorf("%d of %d submissions admitted: the matrix should mix both outcomes", admitted, 2*len(matrix))
	}
	t.Logf("%d requests, %d admitted per round; table %+v", len(matrix), admitted/2, st)
}

// TestAdmissionExemptFieldsShareEntry: wait does not make a new table
// entry.
func TestAdmissionExemptFieldsShareEntry(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	submitOutcome(t, s, inlineReq(fastIters))
	req := inlineReq(fastIters)
	req.Wait = true
	submitOutcome(t, s, req)
	if st := s.admitTable.stats(); st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("table after two spellings of one request: %+v", st)
	}
}

// TestAdmissionTableEviction: past the byte budget the oldest identity is
// re-admitted in full and resolves to the same key, and an entry is
// charged what its source weighs.
func TestAdmissionTableEviction(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	one := int64(len(identity(inlineReq(fastIters)))) + admitEntryOverhead
	s.admitTable = newAdmissionTable(2*one + one/2) // room for two

	first := submitOutcome(t, s, inlineReq(fastIters))
	submitOutcome(t, s, inlineReq(fastIters+1))
	submitOutcome(t, s, inlineReq(fastIters+2))
	st := s.admitTable.stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Bytes != 2*one {
		t.Fatalf("after three admissions into a two-entry table: %+v", st)
	}
	if got := submitOutcome(t, s, inlineReq(fastIters)); !reflect.DeepEqual(got, first) {
		t.Errorf("re-admission after eviction: %+v, want %+v", got, first)
	}
	if after := s.admitTable.stats(); after.Misses != st.Misses+1 || after.Hits != st.Hits {
		t.Errorf("the evicted identity was not re-admitted in full: %+v → %+v", st, after)
	}

	big := &JobRequest{Source: strings.Repeat("add %r1, %r1, 1\n", (4<<20)/16),
		GridCTAs: 1, CTAThreads: 32, MemWords: 64}
	table := newAdmissionTable(admitTableBytes)
	table.put(identity(big), admission{})
	if st := table.stats(); st.Entries != 1 || st.Bytes < 4<<20 || st.Bytes > 4<<20+1024 {
		t.Errorf("a 4 MiB source is charged %d bytes", st.Bytes)
	}
	table = newAdmissionTable(1 << 20)
	table.put(identity(big), admission{})
	if st := table.stats(); st.Entries != 0 {
		t.Errorf("an entry dearer than the whole budget was stored: %+v", st)
	}
}
