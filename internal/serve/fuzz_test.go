package serve

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"mfsynth/internal/verify"
)

// FuzzJobRequest drives the service's request boundary: decode the JSON
// body, resolve it into synthesis inputs and fingerprint them. No input
// may panic, and the fingerprint of an accepted request must not change
// when the JSON object fields are reordered.
func FuzzJobRequest(f *testing.F) {
	f.Add([]byte(`{"assay":"assay web\nop s1 input 0\nop s2 input 0\nop m1 mix 3\nop o1 output 0\nedge s1 m1 4\nedge s2 m1 4\nedge m1 o1 8\n","options":{"mode":"greedy","grid":10}}`))
	f.Add([]byte(`{"case":"PCR","policy":1,"options":{"mode":"rolling"}}`))
	f.Add([]byte(`{"options":{"mixers":{"8":1},"pump_actuations":11,"grid":10,"mode":"greedy"},"assay":"assay loadgen\nop s1 input\nop s2 input\nop m1 mix 3\nop o1 output\nedge s1 m1 4\nedge s2 m1 4\nedge m1 o1 8\n"}`))
	f.Add([]byte(`{"case":"MixingTree","policy":2,"faults":"grid 12\nstuck-closed 4 7\nwear-out 9 2 250\n","options":{"backends":"greedy,anneal","anneal_seed":7,"anneal_replicates":2,"deadline_seconds":30}}`))
	f.Add([]byte(`{"case":"PCR","options":{"grid":100000}}`))
	f.Add([]byte(`{"case":"nope"}`))
	f.Add([]byte(`[1,2`))

	f.Fuzz(func(t *testing.T, body []byte) {
		fp, ok := fingerprintBody(body)
		if !ok {
			return // rejection is always fine; panicking is not
		}
		reordered, ok := reorderJSON(body)
		if !ok {
			return
		}
		fp2, ok := fingerprintBody(reordered)
		if !ok || fp2 != fp {
			t.Fatalf("fingerprint changed under field reordering\nbody:      %s\nreordered: %s", body, reordered)
		}
	})
}

// fingerprintBody runs a body through decode, resolve and
// verify.RequestFingerprint, reporting whether it was accepted.
func fingerprintBody(body []byte) (string, bool) {
	var req JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", false
	}
	a, opts, _, err := req.resolve()
	if err != nil {
		return "", false
	}
	fp, err := verify.RequestFingerprint(a, opts)
	return fp, err == nil
}

// reorderJSON re-encodes every JSON object with its fields in reverse key
// order. It declines objects whose keys collide case-insensitively:
// encoding/json matches struct fields case-insensitively and lets the
// later duplicate win, so reordering those legitimately changes the
// decoded request.
func reorderJSON(body []byte) ([]byte, bool) {
	var v any
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, false
	}
	var buf bytes.Buffer
	if !writeReversed(&buf, v) {
		return nil, false
	}
	return buf.Bytes(), true
}

func writeReversed(buf *bytes.Buffer, v any) bool {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		seen := map[string]bool{}
		for k := range x {
			if seen[strings.ToLower(k)] {
				return false
			}
			seen[strings.ToLower(k)] = true
			keys = append(keys, k)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, _ := json.Marshal(k)
			buf.Write(kb)
			buf.WriteByte(':')
			if !writeReversed(buf, x[k]) {
				return false
			}
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if !writeReversed(buf, e) {
				return false
			}
		}
		buf.WriteByte(']')
	default:
		b, err := json.Marshal(x)
		if err != nil {
			return false
		}
		buf.Write(b)
	}
	return true
}
