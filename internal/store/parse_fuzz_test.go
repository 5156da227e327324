package store

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseEntry files bytes the store did not write under a valid key.
// Whatever they are nothing panics, and they come back as a payload only
// when the header's magic, key, length and FNV all agree with the key
// they are filed under and the bytes after the header; otherwise the
// verdict is one of the named quarantine reasons. What encodeEntry wrote
// always parses back to its payload, no longer once cut short, and one
// damaged byte is either caught or leaves the payload what it was. An
// Open over the same file agrees with parseEntry: the entry is served, or
// sits in quarantine/ under that reason.
func FuzzParseEntry(f *testing.F) {
	key := testKey(7)
	payload := []byte(strings.Repeat("result bytes ", 100))
	whole := encodeEntry(key, payload)
	nl := bytes.IndexByte(whole, '\n')
	flipped := bytes.Clone(whole)
	flipped[len(flipped)-7] ^= 0x40
	f.Add(key, whole, uint16(0), byte(0))
	f.Add(key, whole, uint16(len(whole)-7), byte(0x40))      // the damage store_test.go does, done by the target
	f.Add(key, flipped, uint16(3), byte(1))                  // single bit flip in the payload
	f.Add(key, whole[:len(whole)/2], uint16(20), byte(0x20)) // truncated mid-payload
	f.Add(key, []byte{}, uint16(0), byte(0))                 // zero-byte file
	f.Add(key, whole[:nl+1], uint16(11), byte(0xff))         // header-only file
	f.Add(key, whole[:nl], uint16(0), byte(0))               // cut before the newline
	f.Add(testKey(8), whole, uint16(0), byte(0))             // another key's entry
	f.Add(key, []byte("partial"), uint16(0), byte(0))        // what an orphan temp file holds
	f.Add(key, encodeEntry(key, nil), uint16(0), byte(0))
	f.Add("abc", []byte("warpstore1  abc +3 "+sum(payload[:3])+" trailing\nres"), uint16(0), byte(0))

	reasons := map[string]bool{"truncated": true, "bad-magic": true, "bad-header": true,
		"key-mismatch": true, "short-payload": true, "checksum-mismatch": true}

	f.Fuzz(func(t *testing.T, key string, data []byte, pos uint16, mask byte) {
		if validKey(key) != nil || len(key) > 200 {
			t.Skip()
		}
		got, reason := parseEntry(key, data)
		switch {
		case reason == "":
			head, rest, found := bytes.Cut(data, []byte("\n"))
			if !found || !bytes.Equal(got, rest) {
				t.Fatalf("accepted %q as payload %q", data, got)
			}
			// The four fields in order, however Sscanf let them be spaced.
			left := string(head)
			for _, want := range []string{headerMagic, key, strconv.Itoa(len(rest)), sum(rest)} {
				_, after, ok := strings.Cut(left, want)
				if !ok {
					t.Fatalf("accepted an entry whose header %q lacks %q (key %q, %d payload bytes)", head, want, key, len(rest))
				}
				left = after
			}
		case !reasons[reason]:
			t.Fatalf("unnamed reason %q", reason)
		case got != nil:
			t.Fatalf("refused (%s) but returned %d payload bytes", reason, len(got))
		}

		// data as a payload: a written entry reads back, a cut one never,
		// and a damaged byte never turns it into a different payload.
		entry := encodeEntry(key, data)
		if back, reason := parseEntry(key, entry); reason != "" || !bytes.Equal(back, data) {
			t.Fatalf("encodeEntry's output does not parse back: %q", reason)
		}
		at := int(pos) % len(entry)
		if _, reason := parseEntry(key, entry[:at]); reason == "" {
			t.Fatalf("an entry cut to %d of %d bytes was accepted", at, len(entry))
		}
		if mask != 0 {
			damaged := bytes.Clone(entry)
			damaged[at] ^= mask
			if back, reason := parseEntry(key, damaged); reason == "" && !bytes.Equal(back, data) {
				t.Fatalf("byte %d ^ %#x served a different payload", at, mask)
			}
		}

		// The same bytes as a file of a store.
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, shardOf(key)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shardOf(key), key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, rep, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		served, ok := s.Get(key)
		if ok != (reason == "") || !bytes.Equal(served, got) {
			t.Fatalf("parseEntry says %q, the store serves %v", reason, ok)
		}
		if reason == "" {
			if rep.Recovered != 1 || len(rep.Quarantined) != 0 {
				t.Fatalf("a good entry recovered as %+v", rep)
			}
			return
		}
		if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != reason || rep.Quarantined[0].Key != key {
			t.Fatalf("a %s entry recovered as %+v", reason, rep)
		}
		if kept, err := os.ReadFile(filepath.Join(dir, rep.Quarantined[0].QuarantinePath)); err != nil || !bytes.Equal(kept, data) {
			t.Fatalf("quarantined file is not the damaged bytes: %v", err)
		}
	})
}

func sum(payload []byte) string {
	h := fnv.New64a()
	h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}
