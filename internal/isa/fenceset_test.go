package isa_test

import (
	"reflect"
	"sort"
	"testing"

	"invisifence/internal/isa"
	"invisifence/internal/litmus"
)

// TestSiteOrder pins the site order (thread, then PC) and rendering.
func TestSiteOrder(t *testing.T) {
	set := []isa.Site{{Thread: 1, PC: 3}, {Thread: 0, PC: 2}, {Thread: 1, PC: 1}}
	sort.Slice(set, func(i, j int) bool { return set[i].Less(set[j]) })
	want := []isa.Site{{Thread: 0, PC: 2}, {Thread: 1, PC: 1}, {Thread: 1, PC: 3}}
	if !reflect.DeepEqual(set, want) {
		t.Fatalf("sorted = %v, want %v", set, want)
	}
	if s := want[2].String(); s != "T1@3" {
		t.Fatalf("String = %q, want T1@3", s)
	}
}

// TestFenceSetMatchesInsertFences checks Sites and FenceSet against a
// by-hand reference on every corpus test: Sites is each thread's
// FenceSites in thread order, and every set of at most two sites, in
// either order, fences exactly the instructions that grouping the set per
// thread and calling InsertFences does.
func TestFenceSetMatchesInsertFences(t *testing.T) {
	for _, tt := range litmus.Tests {
		bodies := litmus.BodyPrograms(tt, isa.NoFences)
		sites := isa.Sites(bodies)
		var want []isa.Site
		for th, b := range bodies {
			for _, pc := range isa.FenceSites(b) {
				want = append(want, isa.Site{Thread: th, PC: pc})
			}
		}
		if !reflect.DeepEqual(sites, want) {
			t.Fatalf("%s: Sites = %v, want %v", tt.Name, sites, want)
		}
		var sets [][]isa.Site
		sets = append(sets, nil)
		for i := range sites {
			sets = append(sets, []isa.Site{sites[i]})
			for j := i + 1; j < len(sites); j++ {
				sets = append(sets, []isa.Site{sites[i], sites[j]}, []isa.Site{sites[j], sites[i]})
			}
		}
		for _, set := range sets {
			got, err := isa.FenceSet(bodies, set)
			if err != nil {
				t.Fatalf("%s %v: %v", tt.Name, set, err)
			}
			if len(got) != len(bodies) {
				t.Fatalf("%s %v: %d bodies, want %d", tt.Name, set, len(got), len(bodies))
			}
			for th, b := range bodies {
				var pcs []int
				for _, s := range set {
					if s.Thread == th {
						pcs = append(pcs, s.PC)
					}
				}
				ref, err := isa.InsertFences(b, pcs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[th].Instrs, ref.Instrs) {
					t.Fatalf("%s %v: thread %d = %v, want %v", tt.Name, set, th, got[th].Instrs, ref.Instrs)
				}
			}
		}
		for _, bad := range []isa.Site{{Thread: len(bodies), PC: 1}, {Thread: -1, PC: 1}} {
			if _, err := isa.FenceSet(bodies, []isa.Site{bad}); err == nil {
				t.Errorf("%s: site %v with out-of-range thread accepted", tt.Name, bad)
			}
		}
	}
}
