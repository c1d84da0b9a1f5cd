package service

import (
	"testing"

	"sttsim/internal/core"
	"sttsim/internal/workload"
	api "sttsim/pkg/sttsim"
)

// TestSpecConfigPlacement pins how the wire's regions/corner pair resolves.
// corner:true means corner TSBs. An explicit region count without corner
// means staggered TSBs, the SDK's documented meaning of corner:false. A spec
// with neither keeps the simulator's default geometry (8 staggered regions)
// and the fingerprint it had before placement was resolved here.
func TestSpecConfigPlacement(t *testing.T) {
	cases := []struct {
		name    string
		regions int
		corner  bool
		set     bool
		want    core.Placement
		fp      string // pinned fingerprint; "" leaves it unpinned
	}{
		{name: "{}", fp: "21fd2d587d9362df422599fb99743843d0d06a86dba43f80eaa0da97219f1f1b"},
		{name: "regions:4", regions: 4, set: true, want: core.PlacementStagger},
		{name: "regions:8", regions: 8, set: true, want: core.PlacementStagger},
		{name: "regions:16", regions: 16, set: true, want: core.PlacementStagger},
		{name: "corner", corner: true, set: true, want: core.PlacementCorner,
			fp: "562fb6d3592ff7658bf3dda2dac50662a1f09845311db7c65ac4389e1f99da8c"},
		{name: "regions:4,corner", regions: 4, corner: true, set: true, want: core.PlacementCorner,
			fp: "642d683056ef6894446109ef8c3ec9e37e658bd4fe55a5a913f6eeef9fd064ca"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := SpecConfig(JobSpec{
				Scheme: "wb", Bench: "tpcc", WarmupCycles: 200, MeasureCycles: 800,
				Regions: c.regions, Corner: c.corner,
			})
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Regions != c.regions || cfg.PlacementSet != c.set || cfg.Placement != c.want {
				t.Fatalf("regions=%d placement=%v set=%v, want regions=%d placement=%v set=%v",
					cfg.Regions, cfg.Placement, cfg.PlacementSet, c.regions, c.want, c.set)
			}
			if c.fp != "" && cfg.Fingerprint() != c.fp {
				t.Fatalf("fingerprint %s, want %s", cfg.Fingerprint(), c.fp)
			}
		})
	}
}

// TestSpecConfigProfileBound pins the SDK's profile ceiling to the
// assignment's slot count, and SpecConfig's check to both.
func TestSpecConfigProfileBound(t *testing.T) {
	if api.MaxProfiles != workload.ProfileSlots {
		t.Fatalf("sttsim.MaxProfiles = %d, workload.ProfileSlots = %d", api.MaxProfiles, workload.ProfileSlots)
	}
	spec := func(n int) JobSpec {
		s := JobSpec{Scheme: "wb", Profiles: make([]ProfileSpec, n)}
		for i := range s.Profiles {
			s.Profiles[i] = ProfileSpec{Name: "p", Suite: "spec", L1MPKI: 10, L2MPKI: 1, L2WPKI: 1, L2RPKI: 1}
		}
		return s
	}
	if _, err := SpecConfig(spec(workload.ProfileSlots)); err != nil {
		t.Fatalf("%d profiles rejected: %v", workload.ProfileSlots, err)
	}
	if _, err := SpecConfig(spec(workload.ProfileSlots + 1)); err == nil {
		t.Fatalf("%d profiles accepted", workload.ProfileSlots+1)
	}
}
