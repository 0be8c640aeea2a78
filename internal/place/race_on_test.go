//go:build race

package place

// raceEnabled reports whether this test binary was built with the race
// detector; wall-clock-heavy single-configuration property tests skip
// themselves under it (they assert determinism, not synchronisation, and
// the ~10x race slowdown pushes the package past the test timeout).
const raceEnabled = true
