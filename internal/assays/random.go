package assays

import (
	"fmt"
	"math/rand"

	"mfsynth/internal/graph"
)

// RandomOptions parameterises Random.
type RandomOptions struct {
	// MixOps is the number of mixing operations (default 8).
	MixOps int
	// MaxFanIn bounds a mix's fan-in (default 2): it consumes at most
	// MaxFanIn-1 mix products, and its remaining volume comes from input
	// ports. At the default no mix has two device parents.
	MaxFanIn int
	// Detects adds this many detection operations on random products.
	Detects int
	// Volumes is the catalog of mixing volumes to draw from (default
	// MixerSizes).
	Volumes []int
}

// Random generates a pseudo-random valid bioassay from a seed. The
// construction is reverse-topological: mixing operation i may consume the
// products of operations j > i (at most half of the producer's volume, so
// fluid conservation always holds); remaining demand is fed from input
// ports. The same seed yields the same assay.
func Random(seed int64, opts RandomOptions) *graph.Assay {
	if opts.MixOps <= 0 {
		opts.MixOps = 8
	}
	if opts.MaxFanIn <= 0 {
		opts.MaxFanIn = 2
	}
	if len(opts.Volumes) == 0 {
		opts.Volumes = MixerSizes
	}
	r := rand.New(rand.NewSource(seed))
	a := graph.New(fmt.Sprintf("random%d", seed))

	n := opts.MixOps
	mixes := make([]*graph.Op, n)
	vols := make([]int, n)
	for i := 0; i < n; i++ {
		mixes[i] = a.Add(graph.Mix, fmt.Sprintf("o%d", i+1), DefaultMixDuration)
		vols[i] = opts.Volumes[r.Intn(len(opts.Volumes))]
	}
	// drawn[j] tracks how much of product j is already consumed.
	drawn := make([]int, n)
	inputs := 0
	for i := 0; i < n; i++ {
		need := vols[i]
		// Consume up to MaxFanIn-1 products of later-indexed (deeper) mixes.
		producers := r.Perm(n - i - 1)
		taken := 0
		for _, off := range producers {
			if taken >= opts.MaxFanIn-1 || need <= vols[i]/2 {
				break
			}
			j := i + 1 + off
			avail := vols[j] - drawn[j]
			want := need / 2
			if want < 1 || avail < 1 {
				continue
			}
			if want > avail {
				want = avail
			}
			a.Connect(mixes[j], mixes[i], want)
			drawn[j] += want
			need -= want
			taken++
		}
		// Feed the rest from ports, in at most two streams.
		for need > 0 {
			inputs++
			in := a.Add(graph.Input, fmt.Sprintf("i%d", inputs), 0)
			amount := need
			if amount > 2 && r.Intn(2) == 0 {
				amount = need/2 + r.Intn(need/2)
			}
			a.Connect(in, mixes[i], amount)
			need -= amount
		}
	}
	// Detections on random products with spare volume.
	for d := 0; d < opts.Detects; d++ {
		j := r.Intn(n)
		if vols[j]-drawn[j] < 1 {
			continue
		}
		det := a.Add(graph.Detect, fmt.Sprintf("d%d", d+1), DefaultDetectDuration)
		a.Connect(mixes[j], det, vols[j]-drawn[j])
		drawn[j] = vols[j]
	}
	return a
}
