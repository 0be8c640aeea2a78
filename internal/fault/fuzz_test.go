package fault

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzFaultSpec: the spec parser must never panic on arbitrary text, and
// every spec it accepts must write out in canonical form — output that
// parses back and writes out byte for byte the same.
func FuzzFaultSpec(f *testing.F) {
	f.Add("# dead column driver segment\ngrid 12\nstuck-closed 4 7\nstuck-closed 4 8\nwear-out 9 2 250\n")
	f.Add("stuck-open 0 0\nstuck-closed 3 1 # trailing comment\n")
	f.Add("grid 4\nwear-out 3 3 1\n")
	f.Add("stuck-closed 9 9\ngrid 5\n")
	f.Add("grid 3\ngrid 9\nstuck-open 8 8\n")
	f.Add("wear-out 1 1 0\n")
	f.Add("stuck-closed 1 1\nstuck-open 1 1\n")
	f.Add("\x00\xff grid")

	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(strings.NewReader(spec))
		if err != nil {
			return // rejection is always fine; panicking is not
		}
		var out bytes.Buffer
		if err := Write(&out, s); err != nil {
			t.Fatalf("accepted spec does not write: %v\ninput: %q", err, spec)
		}
		back, err := Parse(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written spec does not parse: %v\ninput: %q\nwritten: %q", err, spec, out.String())
		}
		var again bytes.Buffer
		if err := Write(&again, back); err != nil {
			t.Fatal(err)
		}
		if again.String() != out.String() {
			t.Fatalf("output not canonical:\nfirst:  %q\nsecond: %q", out.String(), again.String())
		}
	})
}
