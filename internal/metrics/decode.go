package metrics

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// The manifest decoder. WriteFile, json.Marshal and the sweep journal
// all emit one canonical form: the field names exactly as the struct
// tags spell them; strings of valid UTF-8 without escapes (a watchdog
// error carries an em dash); integer cycles and counters; floats in the
// JSON number grammar; and nothing after the closing brace but
// whitespace. decoder reads that form in one pass over the bytes. The
// first byte outside it — a case-folded or unknown field, a repeated
// object, an escape, invalid UTF-8, null, a non-integer or overflowing
// count, trailing bytes — abandons the pass, and the whole input goes to
// json.Unmarshal unchanged. encoding/json thus stays the reference
// (FuzzManifestDecode holds both paths to equal values) and is the only
// path that reports errors or reads hand-edited files.

// parseManifest decodes a manifest's bytes as json.Unmarshal would.
func parseManifest(data []byte) (*Manifest, error) {
	d := decoder{data: data, names: make(map[string]string)}
	if m := new(Manifest); d.manifest(m) && d.end() {
		return m, nil
	}
	m := new(Manifest)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeRunRecord decodes one run record (a sweep journal entry) into
// the value json.Unmarshal would produce from the same bytes, and fails
// where it would fail.
func DecodeRunRecord(data []byte) (RunRecord, error) {
	d := decoder{data: data}
	var r RunRecord
	if d.record(&r) && d.end() {
		return r, nil
	}
	r = RunRecord{}
	if err := json.Unmarshal(data, &r); err != nil {
		return RunRecord{}, err
	}
	return r, nil
}

// Headline is what warpsimd's disk tier reads of a stored manifest: the
// number of runs, and the first run's cycles and error.
type Headline struct {
	Runs   int
	Cycles int64
	Err    string
}

// DecodeHeadline reads a manifest's headline as json.Unmarshal reads it
// into
//
//	struct {
//		Runs []struct {
//			Cycles int64  `json:"cycles"`
//			Err    string `json:"err"`
//		} `json:"runs"`
//	}
//
// and fails where that fails. Canonical bytes are read in one pass that
// skips every other member, validating it, and allocates nothing but a
// non-empty error string; any other input goes to json.Unmarshal.
func DecodeHeadline(data []byte) (Headline, error) {
	d := decoder{data: data}
	var h Headline
	if errb, ok := d.headline(&h); ok && d.end() {
		if len(errb) > 0 {
			h.Err = string(errb)
		}
		return h, nil
	}
	var m struct {
		Runs []struct {
			Cycles int64  `json:"cycles"`
			Err    string `json:"err"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return Headline{}, err
	}
	h = Headline{Runs: len(m.Runs)}
	if h.Runs > 0 {
		h.Cycles, h.Err = m.Runs[0].Cycles, m.Runs[0].Err
	}
	return h, nil
}

// decoder walks canonical manifest bytes. Every method reports false at
// the first byte outside the canonical form, leaving the value it was
// filling half done; the caller then discards it.
type decoder struct {
	data []byte
	pos  int
	// names interns the identity strings and counter names of one
	// manifest, which its runs repeat; nil interns nothing.
	names map[string]string
	// hint sizes a counter map: the size of the previous one.
	hint int
}

// manifest and record decode the members they know, in any order. A
// repeated scalar member overwrites the first, as in encoding/json; a
// repeated object or array leaves the canonical form, because
// encoding/json merges it into the first.
func (d *decoder) manifest(m *Manifest) bool {
	return d.object(func(key []byte) bool {
		ok := false
		switch string(key) {
		case "schema":
			var v int64
			v, ok = d.int()
			m.Schema = int(v)
			ok = ok && int64(m.Schema) == v
		case "tool":
			m.Tool, ok = d.string(false)
		case "git_rev":
			m.GitRev, ok = d.string(false)
		case "config_hash":
			m.ConfigHash, ok = d.string(false)
		case "config":
			if m.Config == nil {
				m.Config, ok = d.config()
			}
		case "wall_ms":
			m.WallMS, ok = d.float()
		case "runs":
			if m.Runs == nil {
				m.Runs, ok = d.runs()
			}
		}
		return ok
	})
}

func (d *decoder) runs() ([]RunRecord, bool) {
	if !d.next('[') {
		return nil, false
	}
	runs := []RunRecord{}
	if d.next(']') {
		return runs, true
	}
	for {
		runs = append(runs, RunRecord{})
		if !d.record(&runs[len(runs)-1]) {
			return nil, false
		}
		if d.next(']') {
			return runs, true
		}
		if !d.next(',') {
			return nil, false
		}
	}
}

func (d *decoder) record(r *RunRecord) bool {
	return d.object(func(key []byte) bool {
		ok := false
		switch string(key) {
		case "exp":
			r.Exp, ok = d.string(true)
		case "kernel":
			r.Kernel, ok = d.string(true)
		case "gpu":
			r.GPU, ok = d.string(true)
		case "sched":
			r.Sched, ok = d.string(true)
		case "bows":
			r.BOWS, ok = d.string(true)
		case "ddos":
			r.DDOS, ok = d.string(true)
		case "variant":
			r.Variant, ok = d.string(false)
		case "cycles":
			r.Cycles, ok = d.int()
		case "err":
			r.Err, ok = d.string(false)
		case "wall_ms":
			r.WallMS, ok = d.float()
		case "counters":
			if r.Counters == nil {
				r.Counters, ok = d.counters()
			}
		case "derived":
			if r.Derived == nil {
				r.Derived, ok = d.derived()
			}
		}
		return ok
	})
}

func (d *decoder) counters() (map[string]int64, bool) {
	m := make(map[string]int64, d.hint)
	ok := d.object(func(key []byte) bool {
		v, ok := d.int()
		m[d.intern(key)] = v
		return ok
	})
	d.hint = len(m)
	return m, ok
}

func (d *decoder) derived() (map[string]float64, bool) {
	m := make(map[string]float64)
	ok := d.object(func(key []byte) bool {
		v, ok := d.float()
		m[d.intern(key)] = v
		return ok
	})
	return m, ok
}

// headline reads a manifest's runs into h, returning the first run's
// err bytes (aliasing the input); it skips the other manifest and record
// members. Only the field names the tools write are known: any other
// name might match runs, cycles or err case-insensitively, as
// encoding/json matches names, so it leaves the canonical form, and so
// does a repeated runs member, whose elements encoding/json decodes into
// the first one's.
func (d *decoder) headline(h *Headline) (errb []byte, ok bool) {
	seen := false
	ok = d.object(func(key []byte) bool {
		switch string(key) {
		case "runs":
			if seen {
				return false
			}
			seen = true
			errb, ok = d.headlineRuns(h)
			return ok
		case "schema", "tool", "git_rev", "config_hash", "config", "wall_ms":
			return d.skip(0)
		}
		return false
	})
	return errb, ok
}

// headlineRuns counts the runs of a runs array into h.Runs, with cycles
// from the first run and err returned.
func (d *decoder) headlineRuns(h *Headline) (errb []byte, ok bool) {
	if !d.next('[') {
		return nil, false
	}
	if d.next(']') {
		return nil, true
	}
	for {
		var cycles int64
		var runErr []byte
		ok := d.object(func(key []byte) bool {
			ok := false
			switch string(key) {
			case "cycles":
				cycles, ok = d.int()
			case "err":
				runErr, ok = d.str()
			case "exp", "kernel", "gpu", "sched", "bows", "ddos", "variant", "wall_ms", "counters", "derived":
				ok = d.skip(0)
			}
			return ok
		})
		if !ok {
			return nil, false
		}
		if h.Runs == 0 {
			h.Cycles, errb = cycles, runErr
		}
		h.Runs++
		if d.next(']') {
			return errb, true
		}
		if !d.next(',') {
			return nil, false
		}
	}
}

// maxSkipDepth bounds the nesting skip follows. The canonical form nests
// a skipped value one level deep (a flat map); encoding/json refuses
// input nested past 10000 levels, which skip therefore must not accept.
const maxSkipDepth = 64

// skip consumes one value of any type in the JSON grammar, with strings
// as str reads them, at nesting depth depth.
func (d *decoder) skip(depth int) bool {
	d.ws()
	if d.pos == len(d.data) {
		return false
	}
	switch d.data[d.pos] {
	case '"':
		_, ok := d.str()
		return ok
	case '{':
		return depth < maxSkipDepth && d.object(func([]byte) bool { return d.skip(depth + 1) })
	case '[':
		if depth == maxSkipDepth {
			return false
		}
		d.pos++
		if d.next(']') {
			return true
		}
		for {
			if !d.skip(depth + 1) {
				return false
			}
			if d.next(']') {
				return true
			}
			if !d.next(',') {
				return false
			}
		}
	case 't':
		return d.word("true")
	case 'f':
		return d.word("false")
	case 'n':
		return d.word("null")
	}
	_, _, ok := d.number()
	return ok
}

// config decodes the invocation configuration: flat, with string,
// number and boolean values (numbers as float64, as into any).
func (d *decoder) config() (map[string]any, bool) {
	m := make(map[string]any)
	ok := d.object(func(key []byte) bool {
		var v any
		ok := false
		d.ws()
		switch {
		case d.pos == len(d.data):
		case d.data[d.pos] == '"':
			v, ok = d.string(false)
		case d.data[d.pos] == 't':
			v, ok = true, d.word("true")
		case d.data[d.pos] == 'f':
			v, ok = false, d.word("false")
		default:
			v, ok = d.float()
		}
		m[string(key)] = v
		return ok
	})
	return m, ok
}

// object walks one object, calling member with the decoder positioned
// at each member's value; member consumes the value.
func (d *decoder) object(member func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.next(':') || !member(key) {
			return false
		}
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// str consumes a string without escapes and returns its contents,
// aliasing the input. Its bytes must be valid UTF-8, which encoding/json
// copies unchanged (it replaces invalid bytes).
func (d *decoder) str() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	b, start := d.data, d.pos
	ascii := true
	for i := start; i < len(b); i++ {
		if c := b[i]; c-0x20 >= 0x60 || c == '"' || c == '\\' { // outside 0x20..0x7f, or a quote or backslash
			switch {
			case c == '"':
				d.pos = i + 1
				return b[start:i], ascii || utf8.Valid(b[start:i])
			case c < 0x20 || c == '\\':
				return nil, false
			}
			ascii = false
		}
	}
	return nil, false
}

// string consumes a string value, interned when intern is set.
func (d *decoder) string(intern bool) (string, bool) {
	s, ok := d.str()
	if intern {
		return d.intern(s), ok
	}
	return string(s), ok
}

func (d *decoder) intern(b []byte) string {
	if d.names == nil {
		return string(b)
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	d.names[s] = s
	return s
}

// number consumes a literal in the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether
// it has neither fraction nor exponent.
func (d *decoder) number() (lit []byte, integer, ok bool) {
	d.ws()
	b, i := d.data, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i = j
	}
	lit, d.pos = b[d.pos:i], i
	return lit, integer, true
}

// digits returns the index past the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// int consumes an integer literal that fits an int64.
func (d *decoder) int() (int64, bool) {
	lit, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	return v, err == nil
}

// float consumes a number literal that fits a float64.
func (d *decoder) float() (float64, bool) {
	lit, _, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// word consumes the literal w.
func (d *decoder) word(w string) bool {
	if len(d.data)-d.pos < len(w) || string(d.data[d.pos:d.pos+len(w)]) != w {
		return false
	}
	d.pos += len(w)
	return true
}

// next skips whitespace and consumes c if it comes next.
func (d *decoder) next(c byte) bool {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.pos == len(d.data)
}

func (d *decoder) ws() {
	b, i := d.data, d.pos
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	d.pos = i
}
