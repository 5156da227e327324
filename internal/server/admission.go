package server

import (
	"encoding/binary"
	"slices"

	"warpsched/internal/exp"
)

// Admission — request to (spec, content key) or a RequestError — is a
// pure function of the request's result-affecting fields and the
// server's fixed Options, and under cache-hit traffic it used to be most
// of what a request cost: an inline submission re-ran isa.Parse and both
// analyzers on every hit, a registered one re-rendered and re-hashed the
// assembly of a kernel that cannot have changed. The server therefore
// memoises it per request: one bounded LRU from request identity to what
// a full admission of that request returned.
//
// Only successful admissions are stored; a rejection is recomputed every
// time (a 400/422 body cannot go stale). Every admission runs every
// check, so a hit always stands for one that passed them all.

// admission is what a full admission of one request returned. The spec is
// shared read-only by every job born from it, as the experiment harness
// already shares one kernel across concurrent runs.
type admission struct {
	spec exp.Spec
	key  string
}

const (
	// admitTableBytes bounds the admission table. It is a constant, not
	// an option: an entry is priced at its identity (dominated by the
	// inline source and params), a miss costs one full admission, and
	// seven maximal request bodies or ~50k registered-kernel cells fit.
	admitTableBytes = 32 << 20
	// admitEntryOverhead prices what an entry holds beyond its identity:
	// the spec, the key and the LRU bookkeeping.
	admitEntryOverhead = 512
)

// admissionTable is the LRU from request identity to admission, priced
// like Cache prices results: by the bytes the entry keeps alive.
type admissionTable struct {
	lru *lru[string, admission]
}

func newAdmissionTable(maxBytes int64) *admissionTable {
	return &admissionTable{lru: newLRU[string, admission](maxBytes)}
}

func (t *admissionTable) get(id string) (admission, bool) { return t.lru.get(id) }

func (t *admissionTable) put(id string, a admission) {
	t.lru.put(id, a, int64(len(id))+admitEntryOverhead)
}

func (t *admissionTable) stats() CacheStats { return t.lru.stats() }

// identity renders every field of the request that admission reads — all
// of JobRequest and JobConfig except Wait, which steers the reply, never
// the spec — into one string, each field length-prefixed or
// varint-encoded so that distinct requests render distinctly. Table keys are these strings compared in full, so
// two requests share an entry only when they are the same request.
// TestIdentityCoversRequest fails when a field is added to either struct
// and is neither rendered here nor exempted there.
func identity(req *JobRequest) string {
	c := &req.Config
	b := make([]byte, 0, 96+len(req.Kernel)+len(req.Source)+len(req.Name)+
		len(c.GPU)+len(c.Sched)+len(c.BOWS)+len(c.Hash)+5*len(req.Params))
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	num := func(v int64) { b = binary.AppendVarint(b, v) }
	flag := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	str(req.Kernel)
	str(req.Source)
	str(req.Name)
	num(int64(req.GridCTAs))
	num(int64(req.CTAThreads))
	num(int64(req.MemWords))
	flag(req.Params != nil)
	num(int64(len(req.Params)))
	for _, p := range req.Params {
		num(int64(p))
	}
	flag(req.AllowUnsafe)
	str(c.GPU)
	num(int64(c.SMs))
	str(c.Sched)
	str(c.BOWS)
	flag(c.Delay != nil)
	if c.Delay != nil {
		num(*c.Delay)
	}
	str(c.Hash)
	num(c.MaxCycles)
	flag(c.Quick)
	return string(b)
}

// admit is Options.Resolve + CacheKey behind the admission table.
func (s *Server) admit(req *JobRequest) (exp.Spec, string, *RequestError) {
	id := identity(req)
	if a, ok := s.admitTable.get(id); ok {
		return a.spec, a.key, nil
	}
	spec, rerr := s.opt.Resolve(req)
	if rerr != nil {
		return spec, "", rerr
	}
	key := CacheKey(spec)
	if req.Source != "" {
		// An inline kernel is built for this request and its launch
		// aliases the caller's Params; what the table keeps must not
		// change if the caller reuses the slice.
		spec.Kernel.Launch.Params = slices.Clone(req.Params)
	}
	s.admitTable.put(id, admission{spec, key})
	return spec, key, nil
}
