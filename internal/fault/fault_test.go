package fault

import (
	"testing"

	"sttsim/internal/noc"
)

// paperBanks is the bank count of the paper's 8x8x2 system.
var paperBanks = noc.DefaultTopology().NumBanks()

func TestConfigEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Fatal("nil config must be disabled")
	}
	if (&Config{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	for _, c := range []*Config{
		{WriteErrorRate: 1e-6},
		{TSBFailures: []TSBFailure{{Cycle: 1}}},
		{PortFaults: []PortFault{{Node: 1, Port: noc.PortEast}}},
	} {
		if !c.Enabled() {
			t.Fatalf("%+v should be enabled", c)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{WriteErrorRate: -0.1},
		{WriteErrorRate: 1.5},
		{MaxWriteRetries: -1},
		{TSBFailures: []TSBFailure{{Region: -1}}},
		{PortFaults: []PortFault{{Node: -5, Port: noc.PortEast}}},
		{PortFaults: []PortFault{{Node: 1, Port: noc.NumPorts}}},
		{PortFaults: []PortFault{{Node: 1, Port: noc.PortEast, Period: 1}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, c)
		}
		if _, err := NewEngineBanks(c, 1, paperBanks); err == nil {
			t.Errorf("engine %d should refuse the bad config", i)
		}
	}
	good := Config{WriteErrorRate: 1e-3, TSBFailures: []TSBFailure{{Cycle: 5, Region: 2}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsResolution(t *testing.T) {
	var nilCfg *Config
	if nilCfg.MaxRetries() != DefaultMaxWriteRetries || nilCfg.Backoff() != DefaultRetryBackoffCycles {
		t.Fatal("nil config must resolve to defaults")
	}
	c := &Config{MaxWriteRetries: 7, RetryBackoffCycles: 21}
	if c.MaxRetries() != 7 || c.Backoff() != 21 {
		t.Fatal("explicit values must win")
	}
}

func TestEventsDueConsumesInOrder(t *testing.T) {
	e, err := NewEngineBanks(Config{
		TSBFailures: []TSBFailure{{Cycle: 50, Region: 1}, {Cycle: 10, Region: 0}},
		PortFaults:  []PortFault{{Cycle: 10, Node: 3, Port: noc.PortEast}},
	}, 1, paperBanks)
	if err != nil {
		t.Fatal(err)
	}
	if e.HasEventsDue(9) {
		t.Fatal("nothing due before cycle 10")
	}
	due := e.EventsDue(10)
	if len(due) != 2 {
		t.Fatalf("cycle 10: %d events due, want 2", len(due))
	}
	if due[0].TSB == nil || due[0].TSB.Region != 0 || due[1].Port == nil {
		t.Fatalf("events out of order: %+v", due)
	}
	if e.EventsDue(10) != nil {
		t.Fatal("events must be consumed exactly once")
	}
	if due = e.EventsDue(100); len(due) != 1 || due[0].TSB.Region != 1 {
		t.Fatalf("late event wrong: %+v", due)
	}
	if e.HasEventsDue(1 << 40) {
		t.Fatal("drained engine still reports events")
	}
}

func TestWriteFailsDeterministicPerBank(t *testing.T) {
	draw := func() [2][]bool {
		e, _ := NewEngineBanks(Config{Seed: 42, WriteErrorRate: 0.3}, 0, paperBanks)
		var out [2][]bool
		// Interleave banks differently than a plain loop would to show the
		// streams are independent of draw order.
		for i := 0; i < 100; i++ {
			out[0] = append(out[0], e.WriteFails(5))
		}
		for i := 0; i < 100; i++ {
			out[1] = append(out[1], e.WriteFails(9))
		}
		return out
	}
	a := draw()
	// Same campaign, opposite service order: per-bank sequences must match.
	e, _ := NewEngineBanks(Config{Seed: 42, WriteErrorRate: 0.3}, 0, paperBanks)
	var b [2][]bool
	for i := 0; i < 100; i++ {
		b[1] = append(b[1], e.WriteFails(9))
		b[0] = append(b[0], e.WriteFails(5))
	}
	for bank := 0; bank < 2; bank++ {
		for i := range a[bank] {
			if a[bank][i] != b[bank][i] {
				t.Fatalf("bank stream %d diverged at draw %d under reordered service", bank, i)
			}
		}
	}
	st := e.Stats()
	if st.WriteDraws != 200 || st.WriteFailures == 0 {
		t.Fatalf("stats: %+v", st)
	}
	e.ResetStats()
	if e.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not clear")
	}
}

func TestWriteFailsRateZeroAndBounds(t *testing.T) {
	e, _ := NewEngineBanks(Config{WriteErrorRate: 0}, 7, paperBanks)
	if e.WriteFails(0) {
		t.Fatal("zero rate must never fail")
	}
	if e.Stats().WriteDraws != 0 {
		t.Fatal("zero rate must not even draw")
	}
	hot, _ := NewEngineBanks(Config{WriteErrorRate: 1}, 7, paperBanks)
	if !hot.WriteFails(0) {
		t.Fatal("rate 1 must always fail")
	}
	if hot.WriteFails(-1) || hot.WriteFails(paperBanks) {
		t.Fatal("out-of-range banks must not fail (or draw)")
	}
}

func TestSeedDerivedFromRunSeed(t *testing.T) {
	a, _ := NewEngineBanks(Config{WriteErrorRate: 0.5}, 111, paperBanks)
	b, _ := NewEngineBanks(Config{WriteErrorRate: 0.5}, 222, paperBanks)
	diff := false
	for i := 0; i < 64 && !diff; i++ {
		diff = a.WriteFails(0) != b.WriteFails(0)
	}
	if !diff {
		t.Fatal("different run seeds produced identical fault streams")
	}
	// An explicit campaign seed decouples faults from the run seed.
	c, _ := NewEngineBanks(Config{Seed: 9, WriteErrorRate: 0.5}, 111, paperBanks)
	d, _ := NewEngineBanks(Config{Seed: 9, WriteErrorRate: 0.5}, 222, paperBanks)
	for i := 0; i < 64; i++ {
		if c.WriteFails(3) != d.WriteFails(3) {
			t.Fatal("explicit campaign seed must override the run seed")
		}
	}
}
