package invisifence

import (
	"reflect"
	"strings"
	"testing"

	ifcore "invisifence/internal/core"
	"invisifence/internal/fencesearch"
	"invisifence/internal/litmus"
)

// TestImplementationCatalogue pins the implementation catalogue: every key
// with its label, model, engine and store-buffer capacity, as Run's
// variant constructors and the litmus harness's own sizing rule defined
// them before they were merged into one table. It also checks that every
// entry point resolves a key to the same machine: VariantByName (in any
// letter case), litmus's specs, RunLitmus and fencesearch's Query.Configs.
func TestImplementationCatalogue(t *testing.T) {
	off := func(m Model) ifcore.Config { return ifcore.Config{Mode: ifcore.ModeOff, Model: m} }
	want := []struct {
		key   string
		label string
		model Model
		eng   ifcore.Config
		sb    int
	}{
		{"sc", "sc", SC, off(SC), 64},
		{"tso", "tso", TSO, off(TSO), 64},
		{"rmo", "rmo", RMO, off(RMO), 8},
		{"invisi-sc", "Invisi_sc", SC, ifcore.Config{Mode: ifcore.ModeSelective, Model: SC, MaxCheckpoints: 1}, 8},
		{"invisi-tso", "Invisi_tso", TSO, ifcore.Config{Mode: ifcore.ModeSelective, Model: TSO, MaxCheckpoints: 1}, 8},
		{"invisi-rmo", "Invisi_rmo", RMO, ifcore.Config{Mode: ifcore.ModeSelective, Model: RMO, MaxCheckpoints: 1}, 8},
		{"invisi-sc-2ckpt", "Invisi_sc-2ckpt", SC, ifcore.Config{Mode: ifcore.ModeSelective, Model: SC, MaxCheckpoints: 2}, 32},
		{"continuous", "Invisi_cont", SC, ifcore.Config{Mode: ifcore.ModeContinuous, Model: SC, MaxCheckpoints: 2, MinChunk: 100}, 32},
		{"continuous-cov", "Invisi_cont_CoV", SC, ifcore.Config{Mode: ifcore.ModeContinuous, Model: SC, MaxCheckpoints: 2, CoVTimeout: 4000, MinChunk: 100}, 32},
		{"aso", "ASO_sc", SC, ifcore.Config{Mode: ifcore.ModeASO, Model: SC, MaxCheckpoints: 4, ASOCkptInterval: 64, ASOSSBCapacity: 64, ASODrainPerStore: 2}, 32},
		{"rc", "rc", RC, off(RC), 8},
		{"invisi-rc", "Invisi_rc", RC, ifcore.Config{Mode: ifcore.ModeSelective, Model: RC, MaxCheckpoints: 1}, 8},
		{"louvre-rc", "Louvre_rc", RC, ifcore.Config{Mode: ifcore.ModeLouvre, Model: RC, MaxCheckpoints: 2}, 32},
	}
	names := VariantNames()
	specs := litmus.AllConfigs()
	if len(names) != len(want) || len(specs) != len(want) {
		t.Fatalf("catalogue has %d names and %d litmus specs, want %d", len(names), len(specs), len(want))
	}
	for i, w := range want {
		wantV := Variant{Name: w.label, Model: w.model, Engine: w.eng, SBCapacity: w.sb}
		if names[i] != w.key || specs[i].Name != w.key {
			t.Errorf("entry %d: VariantNames %q, litmus spec %q, want %q", i, names[i], specs[i].Name, w.key)
		}
		for _, key := range []string{w.key, strings.ToUpper(w.key)} {
			v, err := VariantByName(key)
			if err != nil || v != wantV {
				t.Errorf("VariantByName(%q) = %+v, %v; want %+v", key, v, err, wantV)
			}
		}
		if specs[i].Variant != wantV || specs[i].Model != w.model || specs[i].Engine != w.eng {
			t.Errorf("litmus spec %q = %+v, want %+v", w.key, specs[i], wantV)
		}
	}

	for _, key := range names {
		r, err := RunLitmus("SB", key, 1)
		if err != nil || r.Config != key {
			t.Errorf("RunLitmus(SB, %q) = config %q, %v", key, r.Config, err)
		}
	}
	res, err := fencesearch.Search(fencesearch.Query{Test: "SB", Configs: names},
		fencesearch.Options{Seeds: 1, MaxFences: 1, Workers: 1})
	if err != nil {
		t.Fatalf("fencesearch rejects the catalogue: %v", err)
	}
	got := make([]string, len(res.Models))
	for i, m := range res.Models {
		got[i] = m.Config
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("fencesearch searched %v, want %v", got, names)
	}
}
