package core

import (
	"testing"

	"mfsynth/internal/arch"
	"mfsynth/internal/graph"
	"mfsynth/internal/grid"
	"mfsynth/internal/place"
	"mfsynth/internal/route"
	"mfsynth/internal/schedule"
	"mfsynth/internal/storage"
)

// fullStorageResult stages a Result whose single storage is completely
// full during its window, so any path crossing it must be ripped up and
// re-routed around (Algorithm 1 L14-L17).
func fullStorageResult(t *testing.T) (*Result, arch.Placement) {
	t.Helper()
	a := graph.New("full")
	i1 := a.Add(graph.Input, "i1", 0)
	i2 := a.Add(graph.Input, "i2", 0)
	mA := a.Add(graph.Mix, "mA", 6)
	mB := a.Add(graph.Mix, "mB", 6)
	a.Connect(i1, mA, 4)
	a.Connect(i2, mB, 4)
	i3 := a.Add(graph.Input, "i3", 0)
	a.Connect(i3, mA, 4)
	a.Connect(i3, mB, 4)
	mC := a.Add(graph.Mix, "mC", 6)
	a.Connect(mA, mC, 2)
	a.Connect(mB, mC, 2)
	res, err := schedule.List(a, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// mC's device is a 2×2 (volume 4) completely filled by its parents'
	// products (2 + 2) once both finish at t=6.
	tl := storage.NewTimeline(res, mC.ID, 4)
	if tl == nil || tl.FreeAt(tl.Start) != 0 {
		t.Fatalf("storage not full: %+v", tl)
	}
	pl := arch.Placement{At: grid.Point{X: 4, Y: 4}, Shape: arch.Shape{W: 2, H: 2}}
	r := &Result{
		Assay:    a,
		Schedule: res,
		Grid:     10,
		opts:     Options{}.WithDefaults(), // as the pipeline resolves them
		Mapping: &place.Mapping{
			Placements: map[int]arch.Placement{mC.ID: pl},
			Windows:    map[int][2]int{mC.ID: {tl.Start, res.Finish[mC.ID]}},
			Storages:   map[int]*storage.Timeline{mC.ID: tl},
		},
	}
	return r, pl
}

func TestRouteNetRipsFullStorage(t *testing.T) {
	r, pl := fullStorageResult(t)
	router := route.New(grid.RectWH(0, 0, 10, 10))
	router.AddStorage(opID(t, r, "mC"), pl.Footprint())

	// A net whose straight path crosses the storage footprint.
	n := net{
		t:    r.Mapping.Windows[opID(t, r, "mC")][0] + 1,
		from: []grid.Point{{X: 0, Y: 4}}, to: []grid.Point{{X: 9, Y: 4}},
		fromName: "left", toName: "right", fromID: -1, toID: -1,
		exclude: map[int]bool{},
	}
	path, err := r.routeNet(router, n, n.t, &routeObs{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range path {
		if pl.Footprint().Contains(c) {
			t.Fatalf("path crosses the full storage at %v", c)
		}
	}
	if len(path) <= 10 {
		t.Errorf("path length %d suggests no detour happened", len(path))
	}
}

func TestRouteNetPassesStorageWithFreeSpace(t *testing.T) {
	r, pl := fullStorageResult(t)
	id := opID(t, r, "mC")
	// Give the storage free space by doubling its capacity.
	r.Mapping.Storages[id] = storage.NewTimeline(r.Schedule, id, 8)
	router := route.New(grid.RectWH(0, 0, 10, 10))
	router.AddStorage(id, pl.Footprint())

	n := net{
		t:    r.Mapping.Windows[id][0] + 1,
		from: []grid.Point{{X: 0, Y: 4}}, to: []grid.Point{{X: 9, Y: 4}},
		fromName: "left", toName: "right", fromID: -1, toID: -1,
		exclude: map[int]bool{},
	}
	path, err := r.routeNet(router, n, n.t, &routeObs{})
	if err != nil {
		t.Fatal(err)
	}
	crossed := 0
	for _, c := range path {
		if pl.Footprint().Contains(c) {
			crossed++
		}
	}
	if crossed == 0 {
		t.Error("path detoured although the storage had free space")
	}
	if crossed > r.Mapping.Storages[id].FreeAt(n.t) {
		t.Errorf("path intrudes %d cells, free space only %d",
			crossed, r.Mapping.Storages[id].FreeAt(n.t))
	}
}

func TestRouteNetNoPathAfterBlocking(t *testing.T) {
	r, _ := fullStorageResult(t)
	id := opID(t, r, "mC")
	// A 1-wide corridor fully occupied by the (full) storage: rip-up leads
	// to ErrNoPath.
	wall := arch.Placement{At: grid.Point{X: 4, Y: 0}, Shape: arch.Shape{W: 2, H: 10}}
	router := route.New(grid.RectWH(0, 0, 10, 10))
	router.AddStorage(id, wall.Footprint())
	n := net{
		t:    r.Mapping.Windows[id][0] + 1,
		from: []grid.Point{{X: 0, Y: 4}}, to: []grid.Point{{X: 9, Y: 4}},
		fromName: "left", toName: "right", fromID: -1, toID: -1,
		exclude: map[int]bool{},
	}
	if _, err := r.routeNet(router, n, n.t, &routeObs{}); err != route.ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func opID(t *testing.T, r *Result, name string) int {
	t.Helper()
	for _, op := range r.Assay.Ops() {
		if op.Name == name {
			return op.ID
		}
	}
	t.Fatalf("op %q not found", name)
	return -1
}
