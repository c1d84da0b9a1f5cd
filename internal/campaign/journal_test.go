package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"sttsim/internal/failpoint"
)

// TestJournalCRCRejectsBitFlip: a corrupted byte inside a checksummed line,
// or a bare JSON line without the checksum frame, drops exactly that record
// at replay instead of replaying it.
func TestJournalCRCRejectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crc.jsonl")
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Record{Key: fmt.Sprintf("k%d", i), Status: StatusOK, Result: okJSON(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the middle record's JSON payload — the line still
	// parses as JSON, so only the checksum can catch it.
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid := lines[1]
	i := bytes.Index(mid, []byte(`"Cycles":`))
	if i < 0 {
		t.Fatalf("no Cycles field in %q", mid)
	}
	mid[i+len(`"Cycles":`)] ^= 1 // digit -> different digit
	// An unframed line — the journal format before checksums — is corrupt
	// too, in the middle of the file as at its tail.
	bare := []byte(`{"key":"bare","status":"ok","result":{"Cycles":5}}` + "\n")
	lines = append(slices.Insert(lines, 2, bare), bare)
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, dropped, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 || len(recs) != 2 || recs[0].Key != "k0" || recs[1].Key != "k2" {
		t.Fatalf("load after bit flip = (%d recs, %d dropped), want the flipped and both bare records dropped", len(recs), dropped)
	}

	// A resume drops the same lines, reports them, and truncates the bare
	// tail line.
	j2, recs, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Stats()
	j2.Close()
	if len(recs) != 2 || st.ReplayDropped != 3 || st.TruncatedBytes != int64(len(bare)) {
		t.Fatalf("resume = (%d recs, %d dropped, %d truncated), want (2, 3, %d)",
			len(recs), st.ReplayDropped, st.TruncatedBytes, len(bare))
	}
}

// TestJournalTornNewlineReterminated: a crash that tears off only the final
// newline must not cost the record — open-time repair re-terminates it.
func TestJournalTornNewlineReterminated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nl.jsonl")
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Key: "k1", Status: StatusOK, Result: okJSON(1)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, _, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Key: "k2", Status: StatusOK, Result: okJSON(2)}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, dropped, err := LoadJournal(path)
	if err != nil || dropped != 0 || len(recs) != 2 || recs[0].Key != "k1" || recs[1].Key != "k2" {
		t.Fatalf("load = (%d recs, %d dropped, %v), want both records intact", len(recs), dropped, err)
	}
}

// TestJournalShortWriteRepairedAndRetried: a transient torn write must leave
// no partial bytes and still land the record on the retry.
func TestJournalShortWriteRepairedAndRetried(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.jsonl")
	script := failpoint.NewDiskScript(1)
	script.ShortWriteProb = 0.5 // some first attempts tear; most retries land
	j, _, err := OpenJournalWith(path, false, JournalOptions{
		FS: &failpoint.FaultFS{Inner: failpoint.OSFS{}, Script: script},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Half the attempts tear. A torn first attempt whose retry lands is the
	// repair path under test — the retry must write at the truncated EOF, not
	// at the stale offset past it. A torn retry degrades; either way, every
	// record Append accepted must replay, and nothing partial may.
	var accepted []string
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := j.Append(Record{Key: key, Status: StatusOK, Result: okJSON(i)}); err != nil {
			break
		}
		accepted = append(accepted, key)
	}
	if len(accepted) == 0 {
		t.Fatal("no append ever succeeded at 50% short-write probability")
	}
	if j.Degraded() == nil {
		t.Fatal("journal never degraded across 200 appends at 50% short-write probability")
	}
	j.Close()

	recs, dropped, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (repair must scrub partial bytes)", dropped)
	}
	if len(recs) != len(accepted) {
		t.Fatalf("replayed %d records, Append accepted %d — they must agree exactly", len(recs), len(accepted))
	}
	for i, rec := range recs {
		if rec.Key != accepted[i] {
			t.Fatalf("record %d = %q, want %q", i, rec.Key, accepted[i])
		}
	}
}

// TestJournalENOSPCDegrades: disk-full fails the append with no partial
// record, degrades the journal permanently, and rejects later appends fast.
func TestJournalENOSPCDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "enospc.jsonl")
	script := failpoint.NewDiskScript(1)
	script.ENOSPCAfterWrites = 2
	j, _, err := OpenJournalWith(path, false, JournalOptions{
		FS: &failpoint.FaultFS{Inner: failpoint.OSFS{}, Script: script},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Append(Record{Key: fmt.Sprintf("k%d", i), Status: StatusOK, Result: okJSON(i)}); err != nil {
			t.Fatalf("append %d before the cliff: %v", i, err)
		}
	}
	err = j.Append(Record{Key: "k2", Status: StatusOK, Result: okJSON(2)})
	if !errors.Is(err, ErrJournalDegraded) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append at the cliff = %v, want ErrJournalDegraded wrapping ENOSPC", err)
	}
	if err := j.Append(Record{Key: "k3", Status: StatusOK}); !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("append after degradation = %v, want ErrJournalDegraded", err)
	}
	st := j.Stats()
	if st.Appended != 2 || st.AppendErrors != 2 || st.Degraded == "" {
		t.Fatalf("stats = %+v, want 2 appended, 2 append errors, degraded reason", st)
	}
	j.Close()

	recs, dropped, err := LoadJournal(path)
	if err != nil || dropped != 0 || len(recs) != 2 {
		t.Fatalf("replay = (%d recs, %d dropped, %v), want the 2 pre-cliff records", len(recs), dropped, err)
	}
}

// TestJournalSyncErrorDegrades: a failed fsync is never retried — the
// journal degrades immediately (fsyncgate semantics).
func TestJournalSyncErrorDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.jsonl")
	script := failpoint.NewDiskScript(1)
	script.SyncErrorProb = 1
	j, _, err := OpenJournalWith(path, false, JournalOptions{
		Sync: SyncAlways,
		FS:   &failpoint.FaultFS{Inner: failpoint.OSFS{}, Script: script},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = j.Append(Record{Key: "k1", Status: StatusOK, Result: okJSON(1)})
	if !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("append with failing fsync = %v, want ErrJournalDegraded", err)
	}
	if st := j.Stats(); st.SyncErrors != 1 || st.Degraded == "" {
		t.Fatalf("stats = %+v, want 1 sync error and degraded", st)
	}
	j.Close()
}

// TestJournalCompactionBoundsReplay: past MaxBytes the journal folds to the
// latest terminal per key (plus trailing pending leases) via atomic rename,
// and keeps accepting appends afterward.
func TestJournalCompactionBoundsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.jsonl")
	j, _, err := OpenJournalWith(path, false, JournalOptions{MaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Two keys re-journaled many times over: k-even's latest is ok(48),
	// k-odd's latest is ok(49), plus a trailing pending lease on k-pending.
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k-%s", []string{"even", "odd"}[i%2])
		if err := j.Append(Record{Key: key, Status: StatusOK, Result: okJSON(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := cfgN(1)
	if err := j.Append(Record{Key: "k-pending", Status: StatusLeased, Worker: "w1", Epoch: 3, Config: &cfg}); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatalf("stats = %+v, want at least one compaction past MaxBytes", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, dropped, err := LoadJournal(path)
	if err != nil || dropped != 0 {
		t.Fatalf("replay = (%v, %d dropped), want clean", err, dropped)
	}
	// O(live jobs): 2 terminal keys + 1 pending lease, regardless of the 51
	// appends. The trailing appends after the last compaction may not be
	// folded yet, so allow the latest few duplicates — but far fewer than
	// the full history.
	if len(recs) > 10 {
		t.Fatalf("replay has %d records after compaction, want O(live keys), not the full 51", len(recs))
	}
	latest := make(map[string]Record)
	for _, rec := range recs {
		latest[rec.Key] = rec
	}
	// Compaction carries the result bytes through verbatim.
	if !bytes.Equal(latest["k-even"].Result, okJSON(48)) || !bytes.Equal(latest["k-odd"].Result, okJSON(49)) {
		t.Fatalf("latest terminals wrong after compaction: %+v", latest)
	}
	if pend := PendingLeases(recs); len(pend) != 1 || pend[0].Key != "k-pending" || pend[0].Epoch != 3 {
		t.Fatalf("pending leases after compaction = %+v, want the k-pending lease preserved", pend)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("compaction tmp file left behind (stat err %v)", err)
	}
}

// TestCompactRecords: the fold keeps the latest terminal per key and a lease
// only when it post-dates every terminal.
func TestCompactRecords(t *testing.T) {
	recs := []Record{
		{Key: "a", Status: StatusLeased, Epoch: 1},
		{Key: "a", Status: StatusOK, Result: okJSON(1)},
		{Key: "b", Status: StatusFailed, Cause: "panic"},
		{Key: "b", Status: StatusLeased, Epoch: 2}, // pending: after b's terminal
		{Key: "c", Status: StatusLeased, Epoch: 1},
		{Key: "a", Status: StatusOK, Result: okJSON(2)}, // supersedes a's first ok
	}
	folded := CompactRecords(recs)
	var desc []string
	for _, r := range folded {
		desc = append(desc, r.Key+":"+r.Status)
	}
	got := strings.Join(desc, " ")
	want := "a:ok b:failed b:leased c:leased"
	if got != want {
		t.Fatalf("folded = %q, want %q", got, want)
	}
	if cycles(folded[0].Result) != 2 {
		t.Fatalf("a's folded terminal = %+v, want the latest (Cycles=2)", folded[0])
	}
	// Folding must preserve replay semantics: same pending leases.
	if a, b := fmt.Sprint(PendingLeases(recs)), fmt.Sprint(PendingLeases(folded)); a != b {
		t.Fatalf("pending leases changed across fold:\n before %s\n after  %s", b, a)
	}
}

// TestJournalSyncPolicies: interval syncs lazily, always syncs eagerly,
// never leaves fsync to Close; all three keep records readable.
func TestJournalSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy SyncPolicy
		name   string
	}{{SyncNever, "never"}, {SyncInterval, "interval"}, {SyncAlways, "always"}} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "p.jsonl")
			j, _, err := OpenJournalWith(path, false, JournalOptions{Sync: tc.policy, SyncEvery: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(Record{Key: "k", Status: StatusOK, Result: okJSON(1)}); err != nil {
				t.Fatal(err)
			}
			st := j.Stats()
			if st.SyncPolicy != tc.name {
				t.Fatalf("policy renders %q, want %q", st.SyncPolicy, tc.name)
			}
			synced := st.LastSyncAge >= 0
			if tc.policy == SyncAlways && !synced {
				t.Fatal("always: append did not fsync")
			}
			if tc.policy == SyncNever && synced {
				t.Fatal("never: append fsynced")
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if recs, _, _ := LoadJournal(path); len(recs) != 1 {
				t.Fatalf("replay = %d records, want 1", len(recs))
			}
		})
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("ParseSyncPolicy accepted a bogus policy")
	}
	if p, err := ParseSyncPolicy("interval"); err != nil || p != SyncInterval {
		t.Fatalf("ParseSyncPolicy(interval) = (%v, %v)", p, err)
	}
}

// FuzzJournalReplay mutates/truncates journal bytes and asserts the replay
// and repair paths never panic, never lose an intact record, and never
// invent one: after opening the fuzzed file with resume (repair) and
// appending a sentinel, every record that loaded before the repair still
// loads, the sentinel loads, and no terminal record appears that was not
// either present before or the sentinel itself.
func FuzzJournalReplay(f *testing.F) {
	// Corpus: a healthy CRC journal, torn variants, and a bare JSON line
	// (the format before checksums), which must be dropped.
	seedDir := f.TempDir()
	mk := func(name string, write func(j *Journal)) []byte {
		path := filepath.Join(seedDir, name)
		j, _, err := OpenJournal(path, false)
		if err != nil {
			f.Fatal(err)
		}
		write(j)
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	healthy := mk("a", func(j *Journal) {
		cfg := cfgN(1)
		j.Append(Record{Key: "k1", Status: StatusOK, Result: okJSON(1)})
		j.Append(Record{Key: "k2", Status: StatusLeased, Worker: "w", Epoch: 1, Config: &cfg})
		j.Append(Record{Key: "k2", Status: StatusFailed, Cause: "panic", Error: "boom"})
	})
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-7]) // torn tail
	f.Add([]byte(`{"key":"x","status":"ok"}` + "\n"))
	f.Add([]byte("!deadbeef {\"key\":\"y\",\"status\":\"ok\"}\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		before, _, err := LoadJournal(path)
		if err != nil {
			return // read error: nothing to invariant-check
		}
		terminalsBefore := 0
		for _, rec := range before {
			if rec.Status == StatusOK || rec.Status == StatusFailed {
				terminalsBefore++
			}
		}

		j, _, err := OpenJournal(path, true)
		if err != nil {
			t.Fatalf("repair-open failed on loadable input: %v", err)
		}
		if err := j.Append(Record{Key: "fuzz-sentinel", Status: StatusOK}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		after, _, err := LoadJournal(path)
		if err != nil {
			t.Fatalf("replay after repair: %v", err)
		}
		if len(after) != len(before)+1 {
			t.Fatalf("replay has %d records, want the %d pre-repair records plus the sentinel", len(after), len(before))
		}
		for i, rec := range before {
			if after[i].Key != rec.Key || after[i].Status != rec.Status {
				t.Fatalf("record %d changed across repair: %+v -> %+v", i, rec, after[i])
			}
		}
		last := after[len(after)-1]
		if last.Key != "fuzz-sentinel" || last.Status != StatusOK {
			t.Fatalf("sentinel did not land cleanly: %+v", last)
		}
		terminalsAfter := 0
		for _, rec := range after {
			if rec.Status == StatusOK || rec.Status == StatusFailed {
				terminalsAfter++
			}
		}
		if terminalsAfter != terminalsBefore+1 {
			t.Fatalf("terminal records %d -> %d: repair+append must add exactly the sentinel", terminalsBefore, terminalsAfter)
		}
	})
}
