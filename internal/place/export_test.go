package place

import (
	"mfsynth/internal/arch"
	"mfsynth/internal/schedule"
)

// Hooks for this package's external tests, which replay annealing states
// through internal/core: an import the internal tests cannot make.

var (
	RandomProblem = randomProblem
	AnnealRecord  = annealRecord
)

// WithAcceptHook returns cfg with Anneal's accept hook set.
func WithAcceptHook(cfg Config, hook func(fixed map[int]arch.Placement)) Config {
	cfg.acceptHook = hook
	return cfg
}

// FinishState finishes a placement assignment into a Mapping the way
// Anneal does and counts the mapping's storage violations.
func FinishState(res *schedule.Result, cfg Config, fixed map[int]arch.Placement) (*Mapping, int, error) {
	pr, err := newProblem(res, cfg.WithDefaults())
	if err != nil {
		return nil, 0, err
	}
	m := pr.finishMapping(fixed, Stats{})
	return m, len(pr.storageViolations(m)), nil
}
