package fault

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mfsynth/internal/grid"
)

// The text spec format is line-oriented; '#' starts a comment. Lines:
//
//	grid N                 — optional matrix side length header
//	stuck-closed X Y       — valve at (X, Y) permanently closed
//	stuck-open X Y         — valve at (X, Y) cannot close
//	wear-out X Y THRESHOLD — valve dies after THRESHOLD more actuations
//
// Coordinates are zero-based with (0,0) the north-west cell, matching the
// chip snapshots. Example:
//
//	# dead column driver segment
//	grid 12
//	stuck-closed 4 7
//	stuck-closed 4 8
//	wear-out 9 2 250

// Parse reads a fault spec. Faults outside the declared grid (when a grid
// header is present, the last one counts) are an error.
func Parse(r io.Reader) (*Set, error) {
	s := NewSet(0)
	sc := bufio.NewScanner(r)
	lineno := 0
	firstLine := map[grid.Point]int{} // cell → line of its first declaration
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		bad := func(format string, args ...any) error {
			return fmt.Errorf("fault spec line %d: %s", lineno, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "grid":
			if len(fields) != 2 {
				return nil, bad("want: grid N")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, bad("bad grid size %q", fields[1])
			}
			s.gridSize = n
		case "stuck-closed", "stuck-open", "wear-out":
			var kind Kind
			wantArgs := 3
			switch fields[0] {
			case "stuck-closed":
				kind = StuckClosed
			case "stuck-open":
				kind = StuckOpen
			case "wear-out":
				kind, wantArgs = WearOut, 4
			}
			if len(fields) != wantArgs {
				return nil, bad("want: %s X Y%s", fields[0], map[bool]string{true: " THRESHOLD"}[kind == WearOut])
			}
			f := Fault{Kind: kind}
			var err1, err2 error
			f.At.X, err1 = strconv.Atoi(fields[1])
			f.At.Y, err2 = strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || f.At.X < 0 || f.At.Y < 0 {
				return nil, bad("bad coordinates %q %q", fields[1], fields[2])
			}
			if kind == WearOut {
				f.Threshold, err1 = strconv.Atoi(fields[3])
				if err1 != nil || f.Threshold <= 0 {
					return nil, bad("bad wear-out threshold %q", fields[3])
				}
			}
			// A Set holds at most one fault per cell, so a repeated
			// coordinate would silently overwrite the earlier entry —
			// almost certainly a spec-authoring mistake. Reject it,
			// naming both lines, regardless of the two kinds involved.
			if prev, dup := firstLine[f.At]; dup {
				return nil, bad("duplicate fault for cell (%d, %d): already declared on line %d", f.At.X, f.At.Y, prev)
			}
			firstLine[f.At] = lineno
			s.Add(f)
		default:
			return nil, bad("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fault spec line %d: %w", lineno+1, err)
	}
	// Checked against the final header, wherever it stands: Write puts
	// the header first, so a fault outside it would not parse back.
	if g := s.gridSize; g > 0 {
		for _, f := range s.Faults() {
			if f.At.X >= g || f.At.Y >= g {
				return nil, fmt.Errorf("fault spec line %d: cell %s outside %dx%d grid", firstLine[f.At], f.At, g, g)
			}
		}
	}
	return s, nil
}

// Write serialises the set in the spec format; Parse(Write(s)) round-trips.
func Write(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	if g := s.Grid(); g > 0 {
		fmt.Fprintf(bw, "grid %d\n", g)
	}
	for _, f := range s.Faults() {
		fmt.Fprintln(bw, f.String())
	}
	return bw.Flush()
}
