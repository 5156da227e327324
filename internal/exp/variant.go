package exp

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"warpsched/internal/config"
	"warpsched/internal/sim"
)

// VariantHash fingerprints everything that can distinguish two runs
// sharing a kernel/GPU/scheduler name: the full machine configuration
// (fig16's queue-lock comparator differs only in Mem.QueueLocks; a daemon
// job's admitted MaxCycles rides in GPU.MaxCycles), the BOWS and DDOS
// parameter sets (table1 and the delay sweep vary these), the detector
// selection with its TAGE parameters and the WASP knobs (the golden
// sweep's zoo records and warpsim vary these), and the launch geometry and
// parameters (fig16 reuses kernel names across bucket counts). It is the
// one run identity: manifest records carry it and ContentKey (the journal's
// and warpsimd's key) embeds it, so a daemon job, a sweep run and a
// warpsim run of the same configuration share a variant. Deliberately
// excluded, like Cfg.Jobs/NoFastForward: anything that cannot change
// simulation results. Manifest.Add cross-checks records that still
// collide, so a dimension missed here surfaces as an error, not a silent
// overwrite.
//
// The hash is FNV-1a over appendVariant's canonical bytes, formatted as
// 16 hex digits: the value metrics.HashJSON gives the struct those bytes
// encode.
func VariantHash(sp Spec) string {
	var buf [1024]byte
	var hex [16]byte
	return string(appendHex16(hex[:0], fnv1a(appendVariant(buf[:0], &sp))))
}

// appendVariant appends the bytes json.Marshal writes for
//
//	struct {
//		GPU      config.GPU
//		Sched    config.SchedulerKind
//		BOWS     config.BOWS
//		DDOS     config.DDOS
//		Detector config.DetectorKind `json:",omitempty"`
//		TAGE     *config.TAGE        `json:",omitempty"`
//		WaSP     *config.WaSP        `json:",omitempty"`
//		Kernel   string
//		Grid     int
//		Threads  int
//		MemWords int
//		Params   []uint32
//	}
//
// with Detector and TAGE set only for a TAGE-detected spec and WaSP only
// for a WASP-scheduled one. The zoo dimensions are thus omitted when
// they are inactive, so every variant hash from before the zoo existed
// — including the committed golden and report manifests — is unchanged.
// FuzzVariantHash holds the bytes equal to json.Marshal's, so a field
// added to a config struct fails it until it is written here.
func appendVariant(b []byte, sp *Spec) []byte {
	g := &sp.GPU
	b = jsonStr(b, `{"GPU":{"Name":`, g.Name)
	b = jsonInt(b, `,"NumSMs":`, int64(g.NumSMs))
	b = jsonInt(b, `,"WarpsPerSM":`, int64(g.WarpsPerSM))
	b = jsonInt(b, `,"SchedulersPerSM":`, int64(g.SchedulersPerSM))
	b = jsonInt(b, `,"MaxCTAsPerSM":`, int64(g.MaxCTAsPerSM))
	b = jsonInt(b, `,"ALULat":`, g.ALULat)
	b = jsonInt(b, `,"GTORotatePeriod":`, g.GTORotatePeriod)
	b = jsonInt(b, `,"MaxCycles":`, g.MaxCycles)
	m := &g.Mem
	b = jsonInt(b, `,"Mem":{"L1KB":`, int64(m.L1KB))
	b = jsonInt(b, `,"L1Assoc":`, int64(m.L1Assoc))
	b = jsonInt(b, `,"L1HitLat":`, m.L1HitLat)
	b = jsonInt(b, `,"L1MSHRs":`, int64(m.L1MSHRs))
	b = jsonInt(b, `,"L2KB":`, int64(m.L2KB))
	b = jsonInt(b, `,"L2Assoc":`, int64(m.L2Assoc))
	b = jsonInt(b, `,"L2Lat":`, m.L2Lat)
	b = jsonInt(b, `,"L2Banks":`, int64(m.L2Banks))
	b = jsonInt(b, `,"DRAMLat":`, m.DRAMLat)
	b = jsonInt(b, `,"DRAMBw":`, int64(m.DRAMBw))
	b = jsonInt(b, `,"AtomLat":`, m.AtomLat)
	b = jsonInt(b, `,"AtomCost":`, m.AtomCost)
	b = jsonBool(b, `,"QueueLocks":`, m.QueueLocks)
	b = jsonInt(b, `,"LSQDepth":`, int64(m.LSQDepth))
	b = jsonInt(b, `,"MaxPerWarp":`, int64(m.MaxPerWarp))
	b = jsonInt(b, `},"CoreClockMHz":`, int64(g.CoreClockMHz))
	b = jsonInt(b, `,"MemClockMHz":`, int64(g.MemClockMHz))

	b = jsonStr(b, `},"Sched":`, string(sp.Sched))
	bw := &sp.BOWS
	b = jsonStr(b, `,"BOWS":{"Mode":`, string(bw.Mode))
	b = jsonBool(b, `,"Adaptive":`, bw.Adaptive)
	b = jsonInt(b, `,"DelayLimit":`, bw.DelayLimit)
	b = jsonInt(b, `,"WindowCycles":`, bw.WindowCycles)
	b = jsonInt(b, `,"DelayStep":`, bw.DelayStep)
	b = jsonInt(b, `,"MinLimit":`, bw.MinLimit)
	b = jsonInt(b, `,"MaxLimit":`, bw.MaxLimit)
	b = jsonFloat(b, `,"Frac1":`, bw.Frac1)
	b = jsonFloat(b, `,"Frac2":`, bw.Frac2)
	d := &sp.DDOS
	b = jsonStr(b, `},"DDOS":{"Hash":`, string(d.Hash))
	b = jsonInt(b, `,"PathBits":`, int64(d.PathBits))
	b = jsonInt(b, `,"ValueBits":`, int64(d.ValueBits))
	b = jsonInt(b, `,"HistoryLen":`, int64(d.HistoryLen))
	b = jsonInt(b, `,"ConfidenceThreshold":`, int64(d.ConfidenceThreshold))
	b = jsonBool(b, `,"TimeShare":`, d.TimeShare)
	b = jsonInt(b, `,"TimeShareEpoch":`, d.TimeShareEpoch)
	b = jsonInt(b, `,"TableSize":`, int64(d.TableSize))
	b = append(b, '}')
	if sp.Detector == config.DetectTAGE {
		t := &sp.TAGE
		b = jsonStr(b, `,"Detector":`, string(sp.Detector))
		b = jsonInt(b, `,"TAGE":{"Tables":`, int64(t.Tables))
		b = jsonInt(b, `,"BaseHist":`, int64(t.BaseHist))
		b = jsonInt(b, `,"Ratio":`, int64(t.Ratio))
		b = jsonInt(b, `,"IndexBits":`, int64(t.IndexBits))
		b = jsonInt(b, `,"TagBits":`, int64(t.TagBits))
		b = jsonInt(b, `,"ConfidenceThreshold":`, int64(t.ConfidenceThreshold))
		b = jsonInt(b, `,"UsefulDecayPeriod":`, int64(t.UsefulDecayPeriod))
		b = append(b, '}')
	}
	if sp.Sched == config.WASP {
		b = jsonInt(b, `,"WaSP":{"GroupSize":`, int64(sp.WaSP.GroupSize))
		b = jsonInt(b, `,"RotatePeriod":`, sp.WaSP.RotatePeriod)
		b = append(b, '}')
	}

	l := &sp.Kernel.Launch
	b = jsonStr(b, `,"Kernel":`, sp.Kernel.Name)
	b = jsonInt(b, `,"Grid":`, int64(l.GridCTAs))
	b = jsonInt(b, `,"Threads":`, int64(l.CTAThreads))
	b = jsonInt(b, `,"MemWords":`, int64(l.MemWords))
	b = append(b, `,"Params":`...)
	if l.Params == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range l.Params {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(v), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// ContentKey is the content address of a spec's result: warpsimd's cache
// and store file a one-run manifest under it (server.CacheKey, also the
// job id), and the sweep journal files its record under it plus
// journalSuffix. It is FNV-1a over the program's canonical assembly text
// (so two routes to the same instruction stream share results, and any
// instruction change misses), the variant hash over the full
// configuration, and the engine's semantic version (sim.Version, bumped
// whenever results can change). Deterministic simulation makes it sound:
// equal key ⇒ equal result, with no expiry policy.
func ContentKey(sp Spec) string {
	p := sp.Kernel.Launch.Prog
	buf := p.AppendAssembly(make([]byte, 0, 24*len(p.Code)+1024))
	asm := fnv1a(buf)
	variant := fnv1a(appendVariant(buf[:0], &sp))
	var key [48]byte
	k := appendHex16(key[:0], asm)
	k = appendHex16(append(k, '-'), variant)
	k = strconv.AppendInt(append(k, "-v"...), sim.Version, 10)
	return string(k)
}

// fnv1a is the 64-bit FNV-1a hash of b, hash/fnv's New64a.
func fnv1a(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

const hexDigits = "0123456789abcdef"

// appendHex16 appends v as 16 lower-case hex digits, as %016x prints it.
func appendHex16(b []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[v>>shift&0xf])
	}
	return b
}

// The json* helpers append lead, the literal JSON up to and including a
// member's colon, then the member's value in the form json.Marshal
// writes: integers and booleans as strconv formats them, floats and
// strings by the rules of appendJSONFloat and appendJSONString.
func jsonInt(b []byte, lead string, v int64) []byte {
	return strconv.AppendInt(append(b, lead...), v, 10)
}

func jsonBool(b []byte, lead string, v bool) []byte {
	return strconv.AppendBool(append(b, lead...), v)
}

func jsonStr(b []byte, lead, v string) []byte {
	return appendJSONString(append(b, lead...), v)
}

func jsonFloat(b []byte, lead string, v float64) []byte {
	return appendJSONFloat(append(b, lead...), v)
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest round-trip form, in exponent form below 1e-6 and from 1e21 in
// magnitude, with a one-digit negative exponent unpadded. Like
// metrics.HashJSON, it panics on a value JSON cannot carry, NaN or an
// infinity: configurations are plain data, so that is a programming
// error.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic(fmt.Sprintf("exp: variant hash: unsupported value %v", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s quoted as json.Marshal writes it: '"' and
// '\\' escaped, control bytes as \b \f \n \r \t or \u00xx, the
// HTML-sensitive '<', '>' and '&' as \u003c \u003e \u0026, U+2028 and
// U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
