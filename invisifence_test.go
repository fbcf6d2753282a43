package invisifence

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// tinyMachine shrinks the system for fast API tests (4 cores, short hops).
func tinyMachine() MachineConfig {
	m := DefaultMachine()
	m.Width, m.Height = 2, 2
	m.HopLatency = 10
	m.L1Bytes = 16 << 10
	m.L2Bytes = 256 << 10
	m.L2Latency = 12
	m.MemLatency = 60
	return m
}

func TestRunAndValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machine = tinyMachine()
	cfg.Workload = "apache"
	cfg.Scale = 0.2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Validated || res.Cycles == 0 || res.Retired == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Breakdown.Total() == 0 {
		t.Fatal("empty breakdown")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = "nope"
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestVariantConstructors(t *testing.T) {
	cases := []struct {
		v     Variant
		name  string
		sbCap int
	}{
		{ConventionalVariant(SC), "sc", 64},
		{ConventionalVariant(TSO), "tso", 64},
		{ConventionalVariant(RMO), "rmo", 8},
		{SelectiveVariant(SC), "Invisi_sc", 8},
		{Selective2CkptVariant(SC), "Invisi_sc-2ckpt", 32},
		{ContinuousVariant(false), "Invisi_cont", 32},
		{ContinuousVariant(true), "Invisi_cont_CoV", 32},
		{ASOVariant(), "ASO_sc", 32},
	}
	for _, c := range cases {
		if c.v.Name != c.name || c.v.SBCapacity != c.sbCap {
			t.Errorf("variant %q: %+v", c.name, c.v)
		}
	}
	if ContinuousVariant(true).Engine.CoVTimeout != 4000 {
		t.Fatal("CoV timeout must default to the paper's 4000 cycles")
	}
}

func TestWorkloadsList(t *testing.T) {
	wls := Workloads()
	if len(wls) != 7 {
		t.Fatalf("got %d workloads, want the paper's 7", len(wls))
	}
	want := []string{"apache", "zeus", "oltp-oracle", "oltp-db2", "dss-db2", "barnes", "ocean"}
	for i, w := range want {
		if wls[i] != w {
			t.Fatalf("workload order: %v", wls)
		}
	}
}

func TestSpeculativeVariantsRunAndSpeculate(t *testing.T) {
	for _, v := range []Variant{SelectiveVariant(SC), ContinuousVariant(true), ASOVariant()} {
		cfg := DefaultConfig()
		cfg.Machine = tinyMachine()
		cfg.Workload = "oltp-oracle"
		cfg.Scale = 0.2
		cfg.Variant = v
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if res.Speculations == 0 {
			t.Fatalf("%s: never speculated", v.Name)
		}
		if res.Commits == 0 {
			t.Fatalf("%s: never committed", v.Name)
		}
	}
}

func tinyCampaign() *Campaign {
	m := tinyMachine()
	return NewCampaign(ExpOptions{
		Machine:   &m,
		Workloads: []string{"barnes"},
		Seeds:     []int64{1},
		Scale:     0.2,
	})
}

func TestCampaignCachesResults(t *testing.T) {
	c := tinyCampaign()
	v := ConventionalVariant(SC)
	r1, err := c.Results("barnes", v)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Results("barnes", v)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Simulated(); n != 1 {
		t.Fatalf("%d simulations for one cell asked for twice", n)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("cached results differ from the simulated ones")
	}
}

// TestCampaignConcurrentResultsSimulateOnce: concurrent requests for one
// cell share a single simulation.
func TestCampaignConcurrentResultsSimulateOnce(t *testing.T) {
	c := tinyCampaign()
	v := ConventionalVariant(SC)
	const callers = 6
	out := make([][]Result, callers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := c.Results("barnes", v)
			if err != nil {
				t.Error(err)
			}
			out[i] = rs
		}()
	}
	wg.Wait()
	if n := c.Simulated(); n != 1 {
		t.Fatalf("%d simulations for %d concurrent requests of one cell", n, callers)
	}
	for i := range out[1:] {
		if !reflect.DeepEqual(out[0], out[i+1]) {
			t.Fatalf("caller %d saw different results", i+1)
		}
	}
}

// TestCampaignResultsKeyedOnFullConfig: two variants sharing a name but
// differing in a parameter are distinct cells; the second must not get
// the first one's results back.
func TestCampaignResultsKeyedOnFullConfig(t *testing.T) {
	c := tinyCampaign()
	v := SelectiveVariant(SC)
	v2 := v
	v2.SBCapacity = 1
	if _, err := c.Results("barnes", v); err != nil {
		t.Fatal(err)
	}
	got, err := c.Results("barnes", v2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(c.cellConfig("barnes", v2, 1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(c.cellConfig("barnes", v, 1))
	if err != nil {
		t.Fatal(err)
	}
	if want.Cycles == first.Cycles {
		t.Fatalf("SBCapacity 1 left cycles unchanged (%d): the test needs a distinguishing knob", want.Cycles)
	}
	if got[0].Cycles != want.Cycles || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("%s@sb1 returned %d cycles, its own run takes %d", v2.Name, got[0].Cycles, want.Cycles)
	}
}

func TestFigureTablesSmallScale(t *testing.T) {
	m := tinyMachine()
	c := NewCampaign(ExpOptions{
		Machine:   &m,
		Workloads: []string{"barnes", "ocean"},
		Seeds:     []int64{1},
		Scale:     0.2,
		Parallel:  4,
	})
	f1, err := Figure1(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Rows) != 2 || len(f1.Header) != 7 {
		t.Fatalf("figure 1 shape: %dx%d", len(f1.Rows), len(f1.Header))
	}
	f8, err := Figure8(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) != 3 { // 2 workloads + geomean
		t.Fatalf("figure 8 rows: %d", len(f8.Rows))
	}
	f10, err := Figure10(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f10.String(), "ocean") {
		t.Fatal("figure 10 missing workload row")
	}
	// Static tables.
	if got := Figure2().String(); got != figure2Text {
		t.Fatalf("figure 2 changed:\n%s\nwant:\n%s", got, figure2Text)
	}
	if len(Figure7().Rows) != 7 {
		t.Fatal("figure 7 must list all workloads")
	}
	if !strings.Contains(Figure6(DefaultMachine()).String(), "torus") {
		t.Fatal("figure 6 content")
	}
}

// figure2Text is Figure 2 as `go run ./cmd/figures -fig 2` renders it,
// captured before its rows were derived from the ordering relation.
const figure2Text = `Figure 2: consistency models — definitions and conventional implementations
model                       relaxations   SB organization      load               store          atomic  full fence
---------------------------------------------------------------------------------------------------------------------
sc                                 none         FIFO/word  drain SB                   -        drain SB         N/A
tso                       store-to-load         FIFO/word         -                   -        drain SB    drain SB
rmo                                 all  coalescing/block         -                   -  complete store    drain SB
rc     all except acquire/release edges  coalescing/block         -  drain SB at st.rel        drain SB    drain SB
`

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("x", "1")
	tb.AddRow("yy", "22")
	tb.AddNote("n%d", 1)
	s := tb.String()
	for _, frag := range []string{"T", "a", "bb", "yy", "22", "note: n1"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("missing %q in:\n%s", frag, s)
		}
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "### T") {
		t.Fatalf("markdown:\n%s", md)
	}
}

func TestLitmusWrapper(t *testing.T) {
	if len(LitmusTests()) < 5 || len(VariantNames()) < 8 {
		t.Fatal("litmus registry too small")
	}
	r, err := RunLitmus("SB", "invisi-sc", 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Runs != 6 || r.Forbidden != 0 {
		t.Fatalf("litmus result: %+v", r)
	}
	if _, err := RunLitmus("nope", "sc", 1); err == nil {
		t.Fatal("expected unknown-test error")
	}
	if _, err := RunLitmus("SB", "nope", 1); err == nil {
		t.Fatal("expected unknown-config error")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machine = tinyMachine()
	cfg.Workload = "dss-db2"
	cfg.Scale = 0.2
	cfg.Variant = SelectiveVariant(SC)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Retired != b.Retired || a.Aborts != b.Aborts {
		t.Fatalf("nondeterministic: %d/%d cycles", a.Cycles, b.Cycles)
	}
}
