package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"sttsim/internal/cache"
	"sttsim/internal/cpu"
	"sttsim/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	prof := workload.MustByName("tpcc")
	gen := workload.NewGeneratorBanks(prof, 3, workload.ModeShared, 42, prof.MissRatio(), cache.DefaultAddrMap().NumBanks())
	var buf bytes.Buffer
	const n = 50000
	if err := Record(gen, n, &buf, Meta{Name: "tpcc", Core: 3, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("loaded %d events, want %d", tr.Len(), n)
	}
	if tr.Meta.Name != "tpcc" || tr.Meta.Core != 3 || tr.Meta.Seed != 42 {
		t.Fatalf("meta mismatch: %+v", tr.Meta)
	}
	// The replayed stream must equal a fresh generator with the same seed.
	ref := workload.NewGeneratorBanks(prof, 3, workload.ModeShared, 42, prof.MissRatio(), cache.DefaultAddrMap().NumBanks())
	p := NewPlayer(tr)
	for i := 0; i < n; i++ {
		want := ref.Next()
		// Addresses are stored at line granularity.
		want.Addr = cache.AddrOfLine(cache.LineAddr(want.Addr))
		if got := p.Next(); got != want {
			t.Fatalf("event %d: got %+v, want %+v", i, got, want)
		}
	}
	// Consuming exactly n events wraps the player once (it is positioned at
	// the start again).
	if p.Loops != 1 {
		t.Fatalf("loops = %d after one full pass, want 1", p.Loops)
	}
	for i := 0; i < n; i++ {
		p.Next()
	}
	if p.Loops != 2 {
		t.Fatalf("loops = %d after two full passes, want 2", p.Loops)
	}
}

func TestCompressionOfIdleRuns(t *testing.T) {
	// A stream of pure non-memory instructions must RLE down to a few bytes.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Name: "idle", Count: 100000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		if err := w.Append(cpu.Access{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 64 {
		t.Fatalf("idle trace took %d bytes; RLE broken", buf.Len())
	}
	tr, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 100000 {
		t.Fatalf("loaded %d, want 100000", tr.Len())
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Name: "x", Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(cpu.Access{})
	if err := w.Close(); err == nil {
		t.Fatal("expected count mismatch error")
	}
	if err := w.Append(cpu.Access{}); err == nil {
		t.Fatal("expected append-after-close error")
	}
	// Close is idempotent.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a trace")); err == nil {
		t.Fatal("expected bad-magic error")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("expected error on empty input")
	}
	// Truncated after the header.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Meta{Name: "t", Count: 10})
	w.Append(cpu.Access{Kind: cpu.AccessRead, Addr: 0x1000})
	w.w.Flush()
	if _, err := Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestEmptyPlayer(t *testing.T) {
	p := NewPlayer(&Trace{})
	if got := p.Next(); got.Kind != cpu.AccessNone {
		t.Fatal("empty trace should replay as idle")
	}
}

// Property: any access sequence round-trips exactly (at line granularity).
func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var events []cpu.Access
		for _, v := range raw {
			switch v % 5 {
			case 0:
				events = append(events, cpu.Access{Kind: cpu.AccessRead,
					Addr: cache.AddrOfLine(uint64(v)), Serialize: v%2 == 0})
			case 1:
				events = append(events, cpu.Access{Kind: cpu.AccessWrite,
					Addr: cache.AddrOfLine(uint64(v) * 977)})
			default:
				events = append(events, cpu.Access{})
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Meta{Name: "prop", Count: uint64(len(events))})
		if err != nil {
			return false
		}
		for _, e := range events {
			if err := w.Append(e); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		tr, err := Load(&buf)
		if err != nil || tr.Len() != len(events) {
			return false
		}
		p := NewPlayer(tr)
		for _, want := range events {
			if p.Next() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsUnknownEventKind(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Meta{Name: "k", Count: 1})
	w.Append(cpu.Access{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] = 99 // corrupt the event kind
	if _, err := Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestLoadRejectsOverlongRun(t *testing.T) {
	// Hand-craft a trace whose RLE run exceeds the declared count.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Meta{Name: "r", Count: 2})
	w.Append(cpu.Access{})
	w.Append(cpu.Access{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] = 200 // inflate the run length byte (varint 200 needs 2 bytes; 200>0x7f)
	// A clean way: declare count 2 but write a run of 3.
	var buf2 bytes.Buffer
	w2, _ := NewWriter(&buf2, Meta{Name: "r", Count: 2})
	for i := 0; i < 3; i++ {
		w2.Append(cpu.Access{})
	}
	w2.flushNoneRun()
	w2.w.Flush()
	if _, err := Load(bytes.NewReader(buf2.Bytes())); err == nil {
		t.Fatal("expected run-overflow error")
	}
	_ = raw
}

func TestLoadRejectsHugeName(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic)
	// Varint name length of 1MB.
	buf.Write([]byte{0x80, 0x80, 0x40})
	if _, err := Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected implausible-name-length error")
	}
}
