package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"mfsynth/internal/assays"
	"mfsynth/internal/core"
	"mfsynth/internal/fault"
	"mfsynth/internal/graph"
	"mfsynth/internal/schedule"
)

// CanonicalRequest serialises a synthesis *request* — the assay, the
// effective options and the fault set — as a deterministic text. It is the
// request-side counterpart of Canonical: two requests with equal canonical
// forms are guaranteed (by the engine's determinism contract) to produce
// bit-identical results, which is what makes RequestFingerprint a safe
// result-cache key for the serving tier.
//
// Canonicalisation rules:
//
//   - Every defaultable option is emitted with its default applied by the
//     engine's own core.Options.WithDefaults, place.Config.WithDefaults and
//     place.AnnealOptions.WithDefaults, so a zero value and an
//     explicitly-spelled default hash identically.
//   - Fields that provably never change results are excluded: Workers
//     (the parallel engine's bit-identity contract), Trace and Place.Obs
//     (observation never changes results).
//   - The fault set is the effective one the pipeline would use:
//     Options.Faults, falling back to Place.Faults, serialised in the
//     fault-spec text format (sorted by cell).
//   - The assay is serialised in the assays text format (topological op
//     order, sorted edges), so the hash covers structure, names, kinds,
//     durations and volumes rather than pointer identity.
//
// An assay that cannot be serialised (a cyclic graph) yields an error; such
// a request cannot be synthesised either, so it is never cacheable.
func CanonicalRequest(a *graph.Assay, opts core.Options) (string, error) {
	var sb strings.Builder
	sb.WriteString("request v3\n")

	sb.WriteString("assay:\n")
	if err := assays.Write(&sb, a); err != nil {
		return "", fmt.Errorf("verify: canonical request: %w", err)
	}

	sb.WriteString("options:\n")
	writeCanonicalOptions(&sb, opts)

	sb.WriteString("faults:\n")
	fs := opts.Faults
	if fs == nil {
		fs = opts.Place.Faults
	}
	if fs.Empty() {
		sb.WriteString("none\n")
	} else if err := fault.Write(&sb, fs); err != nil {
		return "", fmt.Errorf("verify: canonical request: %w", err)
	}
	return sb.String(), nil
}

// writeCanonicalOptions emits every semantically significant option with
// defaults applied, in a fixed field order independent of how the caller
// spelled the struct literal.
func writeCanonicalOptions(sb *strings.Builder, opts core.Options) {
	// Scheduling policy: mixer sizes sorted ascending; an absent and an
	// empty mixer map are the same policy.
	sizes := make([]int, 0, len(opts.Policy.Mixers))
	for size, n := range opts.Policy.Mixers {
		if n != 0 {
			sizes = append(sizes, size)
		}
	}
	sort.Ints(sizes)
	fmt.Fprintf(sb, "policy detectors=%d mixers=", opts.Policy.Detectors)
	for i, size := range sizes {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(sb, "%d:%d", size, opts.Policy.Mixers[size])
	}
	sb.WriteByte('\n')

	delay := opts.TransportDelay
	if delay <= 0 {
		delay = schedule.DefaultTransportDelay
	}
	fmt.Fprintf(sb, "transport_delay %d\n", delay)

	opts = opts.WithDefaults()
	fmt.Fprintf(sb, "pump_actuations %d\n", opts.PumpActuations)
	fmt.Fprintf(sb, "dedicated_pump_valves %d\n", opts.DedicatedPumpValves)
	fmt.Fprintf(sb, "disable_storage_passthrough %v\n", opts.DisableStoragePassthrough)
	fmt.Fprintf(sb, "max_ripups %d\n", opts.MaxRipups)
	fmt.Fprintf(sb, "disable_degradation %v\n", opts.DisableDegradation)

	p := opts.Place.WithDefaults()
	fmt.Fprintf(sb, "place grid=%d mode=%s batch=%d max_nodes=%d solve_timeout_ns=%d root_stride=%d\n",
		p.Grid, p.Mode, p.BatchSize, p.MaxNodes, int64(p.SolveTimeout), p.RootStride)
	fmt.Fprintf(sb, "place no_storage_overlap=%v no_routing_convenient=%v best_effort=%v\n",
		p.NoStorageOverlap, p.NoRoutingConvenient, p.BestEffort)

	// Wear prior: past-load placement bias changes placements, so it
	// hashes — resolved by WithDefaults to the per-operation units the
	// engine seeds the mapper with, in sparse index:units form. A nil,
	// all-zero or bias-less prior emits "none": all three are provably
	// identical to a fresh chip.
	sb.WriteString("wear_prior")
	any := false
	for i, v := range p.WearPrior {
		if v != 0 {
			fmt.Fprintf(sb, " %d:%d", i, v)
			any = true
		}
	}
	if !any {
		sb.WriteString(" none")
	}
	sb.WriteByte('\n')

	// Portfolio configuration. Order is significant (it is the tie-break
	// priority) so the list is emitted verbatim after dedup; unknown
	// backends make the whole line "invalid <name>" — such a request fails
	// synthesis, so the unreachable cache entry is harmless. The anneal
	// options hash whenever the anneal backend can run: with no anneal
	// backend they provably cannot change the result and are elided.
	backends := "none"
	annealRuns := false
	if bs, err := core.ParseBackends(backendsSpec(opts.Backends)); err != nil {
		backends = "invalid " + backendsSpec(opts.Backends)
	} else if len(bs) > 0 {
		backends = backendsSpec(bs)
		for _, b := range bs {
			if b == core.BackendAnneal {
				annealRuns = true
			}
		}
	}
	fmt.Fprintf(sb, "backends %s\n", backends)
	if annealRuns {
		an := opts.Anneal.WithDefaults()
		fmt.Fprintf(sb, "anneal seed=%d replicates=%d iters=%d\n", an.Seed, an.Replicates, an.Iters)
	}
}

// backendsSpec renders a backend list in the comma-separated flag syntax.
func backendsSpec(bs []core.Backend) string {
	parts := make([]string, len(bs))
	for i, b := range bs {
		parts[i] = string(b)
	}
	return strings.Join(parts, ",")
}

// RequestFingerprint returns the SHA-256 of the canonical request form,
// hex-encoded — the serving tier's cache / coalescing key. Equal
// fingerprints imply bit-identical synthesis results (same schedule,
// placement, routing, events and metrics), so a cached result can be
// returned verbatim for a repeated request.
func RequestFingerprint(a *graph.Assay, opts core.Options) (string, error) {
	canon, err := CanonicalRequest(a, opts)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:]), nil
}
