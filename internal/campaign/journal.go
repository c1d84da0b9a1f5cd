package campaign

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"sttsim/internal/failpoint"
	"sttsim/internal/sim"
)

// Record statuses. Terminal verdicts (ok, failed) are journaled for replay;
// cancelled runs are omitted so a resumed campaign re-executes them. Leased
// records are the distribution layer's write-ahead entries: they mark a job
// as handed to a worker and are superseded by the eventual terminal record,
// so a coordinator restart can re-queue leased-but-unfinished work (see
// PendingLeases). Preload ignores them — they carry no verdict.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
	StatusLeased = "leased"
)

// Record is one line of the JSONL checkpoint journal: the terminal outcome of
// one simulation, keyed by the collision-proof fingerprint of its full
// resolved configuration — or, for StatusLeased, the write-ahead note that a
// distribution worker holds the job.
type Record struct {
	Key    string `json:"key"`
	Scheme string `json:"scheme,omitempty"`
	Bench  string `json:"bench,omitempty"`
	Status string `json:"status"`
	Cause  string `json:"cause,omitempty"`
	Error  string `json:"error,omitempty"`
	// Result is a StatusOK record's sim.Result as its canonical JSON bytes:
	// the engine memo and the serving layer hand these exact bytes on, so a
	// replayed result is never decoded just to be encoded again.
	Result json.RawMessage `json:"result,omitempty"`

	// Lease bookkeeping (StatusLeased records only). Config is the full
	// resolved configuration, embedded so a restarted coordinator can
	// re-queue the job without the submitting client still being connected.
	Worker string      `json:"worker,omitempty"`
	Epoch  uint64      `json:"epoch,omitempty"`
	Config *sim.Config `json:"config,omitempty"`
}

// PendingLeases returns, in first-lease order, the latest leased record of
// every key whose lease was never followed by a terminal verdict — the jobs
// a crashed coordinator still owes results for. A later terminal record
// clears the pending lease even if an older lease record follows it in the
// file (append order is authoritative).
func PendingLeases(recs []Record) []Record {
	latest := make(map[string]Record)
	var order []string
	for _, rec := range recs {
		if rec.Key == "" {
			continue
		}
		switch rec.Status {
		case StatusLeased:
			if _, seen := latest[rec.Key]; !seen {
				order = append(order, rec.Key)
			}
			latest[rec.Key] = rec
		case StatusOK, StatusFailed:
			delete(latest, rec.Key)
		}
	}
	out := make([]Record, 0, len(latest))
	for _, key := range order {
		if rec, ok := latest[key]; ok {
			out = append(out, rec)
			delete(latest, key) // order may repeat a re-leased key
		}
	}
	return out
}

// CompactRecords folds a journal's full history down to the state a restart
// actually replays: per key, the latest terminal record, plus the latest
// lease record if (and only if) it follows every terminal — i.e. the lease
// is still pending under PendingLeases semantics. Retryable-failure and
// superseded records are dropped (Preload re-executes those anyway), so the
// folded journal is O(live jobs) regardless of how long the campaign ran.
// First-appearance key order is preserved.
func CompactRecords(recs []Record) []Record {
	type fold struct {
		terminal      Record
		lease         Record
		terminalAt    int
		leaseAt       int
		hasTerminal   bool
		hasLease      bool
		firstAppeared int
	}
	folds := make(map[string]*fold)
	var order []string
	for i, rec := range recs {
		if rec.Key == "" {
			continue
		}
		f, ok := folds[rec.Key]
		if !ok {
			f = &fold{firstAppeared: i}
			folds[rec.Key] = f
			order = append(order, rec.Key)
		}
		switch rec.Status {
		case StatusOK, StatusFailed:
			f.terminal, f.hasTerminal, f.terminalAt = rec, true, i
		case StatusLeased:
			f.lease, f.hasLease, f.leaseAt = rec, true, i
		}
	}
	out := make([]Record, 0, len(order))
	for _, key := range order {
		f := folds[key]
		if f.hasTerminal {
			out = append(out, f.terminal)
		}
		if f.hasLease && (!f.hasTerminal || f.leaseAt > f.terminalAt) {
			out = append(out, f.lease)
		}
	}
	return out
}

// SyncPolicy selects when the journal fsyncs appended records to stable
// storage.
type SyncPolicy int

const (
	// SyncNever flushes records to the OS page cache only (fsync happens at
	// Close and compaction). Fastest; a host crash — not a process crash —
	// can lose the unsynced tail.
	SyncNever SyncPolicy = iota
	// SyncInterval fsyncs at most once per SyncEvery during appends,
	// bounding host-crash loss to one interval of records.
	SyncInterval
	// SyncAlways fsyncs after every record: a journaled verdict survives
	// anything short of media failure, at one fsync of latency per record.
	SyncAlways
)

// String renders the policy's flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// ParseSyncPolicy parses the -journal-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never", "":
		return SyncNever, nil
	}
	return SyncNever, fmt.Errorf("campaign: unknown sync policy %q (want always|interval|never)", s)
}

// JournalOptions tunes a journal's durability and growth behavior. The zero
// value matches the historical journal: flush-to-OS on every append, fsync
// only at Close, no compaction, the real filesystem.
type JournalOptions struct {
	// Sync is the fsync policy.
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period (default 1s).
	SyncEvery time.Duration
	// MaxBytes triggers a compaction pass when the journal grows past it;
	// 0 disables compaction.
	MaxBytes int64
	// FS is the filesystem seam (default the real one). Fault-injection
	// tests substitute a failpoint.FaultFS.
	FS failpoint.FS
	// Logf receives operational diagnostics (default: discarded).
	Logf func(format string, args ...any)
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.SyncEvery <= 0 {
		o.SyncEvery = time.Second
	}
	if o.FS == nil {
		o.FS = failpoint.OSFS{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// JournalStats snapshots a journal's health counters for /v1/stats.
type JournalStats struct {
	// Appended counts records durably handed to the OS this process.
	Appended uint64
	// AppendErrors counts appends that failed even after the torn-write
	// repair-and-retry.
	AppendErrors uint64
	// SyncErrors counts failed fsyncs (any one of which degrades the
	// journal — the kernel may have dropped the dirty pages).
	SyncErrors uint64
	// Compactions counts completed fold-and-rotate passes.
	Compactions uint64
	// SizeBytes is the active file's current size.
	SizeBytes int64
	// LastSyncAge is the time since the last successful fsync; negative
	// when no fsync has happened yet.
	LastSyncAge time.Duration
	// ReplayDropped counts the torn or corrupt lines the resume pass dropped.
	ReplayDropped int
	// TruncatedBytes is the torn tail removed by the open-time repair.
	TruncatedBytes int64
	// SyncPolicy is the active policy's flag spelling.
	SyncPolicy string
	// Degraded carries the terminal disk error once the journal has given
	// up on the file ("" while healthy). A degraded journal rejects appends;
	// the service degrades to cached-result serving and fails readiness.
	Degraded string
}

// ErrJournalDegraded rejects appends after the journal hit a disk error it
// cannot repair (ENOSPC, failed fsync, failed truncate). The campaign keeps
// running — results still serve from memory — but nothing new is durable,
// which the serving layer surfaces as a readiness failure.
var ErrJournalDegraded = errors.New("campaign: journal degraded")

// crcTable is CRC-32C (Castagnoli) — hardware-accelerated on modern CPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is an append-only JSONL checkpoint file, hardened against the
// disk's failure modes:
//
//   - every record is written as one line "!<crc32c> <json>" whose checksum
//     is verified at replay, so a torn, bit-flipped or unframed line is
//     dropped, not replayed;
//   - a short write is repaired in place (truncate back to the last good
//     record) and retried once, so a transiently torn disk still gets its
//     record; persistent errors (ENOSPC, fsync failure) degrade the journal
//     instead of corrupting it;
//   - opening with resume truncates any torn tail left by a crash, so the
//     next append starts on a clean boundary;
//   - past MaxBytes the journal folds itself (CompactRecords) and commits
//     the folded file with an atomic rename, bounding what a restart
//     replays to O(live jobs).
//
// Append is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	opts JournalOptions
	path string
	f    failpoint.File
	size int64

	appended      uint64
	appendErrors  uint64
	syncErrors    uint64
	compactions   uint64
	replayDropped int
	truncated     int64
	lastSync      time.Time
	degraded      error
}

// OpenJournal opens path for appending records with default options; see
// OpenJournalWith.
func OpenJournal(path string, resume bool) (*Journal, []Record, error) {
	return OpenJournalWith(path, resume, JournalOptions{})
}

// OpenJournalWith opens path with explicit durability options. Without
// resume the file is truncated and the campaign starts fresh. With resume,
// one pass reads the existing file: it returns every intact record in file
// order (for Engine.Preload), counts the torn or corrupt lines it dropped in
// Stats().ReplayDropped, and repairs a torn tail so the next append starts on
// a clean boundary. A missing file resumes as an empty journal.
func OpenJournalWith(path string, resume bool, opts JournalOptions) (*Journal, []Record, error) {
	opts = opts.withDefaults()
	// O_APPEND always: the torn-write repair truncates the file and retries,
	// and only append mode guarantees the retry lands at the new EOF rather
	// than at the stale offset past it (which would leave a NUL hole).
	flags := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := opts.FS.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: open checkpoint journal: %w", err)
	}
	j := &Journal{opts: opts, path: path, f: f}
	if st, serr := f.Stat(); serr == nil {
		j.size = st.Size()
	}
	if !resume || j.size == 0 {
		return j, nil, nil
	}
	sc, err := readJournal(opts.FS, path)
	if err == nil {
		err = j.repairTail(sc)
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: resume checkpoint journal: %w", err)
	}
	j.replayDropped = sc.dropped
	return j, sc.recs, nil
}

// repairTail removes the torn tail a crash left behind: garbage after the
// last intact record is truncated away, and a final record whose newline was
// torn off is re-terminated. Mid-file corruption (garbage followed by intact
// records) stays: the replay already skipped it, and truncating there would
// discard good data.
func (j *Journal) repairTail(sc journalScan) error {
	switch {
	case sc.unterminated:
		// The tail is one intact but unterminated record: a torn newline.
		// Re-terminate it rather than dropping a good verdict.
		if _, err := j.f.Write([]byte{'\n'}); err != nil {
			return err
		}
		j.size++
	case sc.validEnd < j.size:
		if err := j.f.Truncate(sc.validEnd); err != nil {
			return err
		}
		j.truncated = j.size - sc.validEnd
		j.opts.Logf("campaign: journal %s: truncated %d byte torn tail", j.path, j.truncated)
		j.size = sc.validEnd
	}
	return nil
}

// journalScan is what one pass over a journal file found.
type journalScan struct {
	recs    []Record // intact records, in file order
	dropped int      // torn, corrupt or unframed lines skipped
	// validEnd is the end offset of the last intact (or blank) terminated
	// line; unterminated reports that the file ends in an intact record
	// whose newline is missing.
	validEnd     int64
	unterminated bool
}

// readJournal reads a journal file line by line. Torn or corrupt lines — the
// usual artefact of a killed process — are counted and skipped, not fatal:
// corruption, even in the middle of the file, is confined to the damaged
// line. A missing file is an empty journal.
func readJournal(fsys failpoint.FS, path string) (journalScan, error) {
	var sc journalScan
	f, err := fsys.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return sc, nil
		}
		return sc, fmt.Errorf("campaign: read checkpoint journal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var pos int64 // bytes consumed so far
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			terminated := line[len(line)-1] == '\n'
			pos += int64(len(line))
			body := bytes.TrimSpace(line)
			if len(body) == 0 {
				if terminated {
					sc.validEnd = pos // blank filler is harmless
				}
			} else if rec, ok := decodeLine(body); ok {
				sc.recs = append(sc.recs, rec)
				if terminated {
					sc.validEnd = pos
				} else {
					sc.unterminated = true
				}
			} else {
				sc.dropped++
			}
		}
		if rerr == io.EOF {
			return sc, nil
		}
		if rerr != nil {
			return sc, fmt.Errorf("campaign: read checkpoint journal: %w", rerr)
		}
	}
}

// LoadJournal reads a journal without opening it for appends or repairing
// it: the intact records in file order and the count of dropped lines.
func LoadJournal(path string) ([]Record, int, error) {
	sc, err := readJournal(failpoint.OSFS{}, path)
	return sc.recs, sc.dropped, err
}

// decodeLine parses one journal line (already whitespace-trimmed, non-empty)
// into a record. Only lines carrying the "!<8 hex crc32c> " prefix whose
// checksum matches their payload decode.
func decodeLine(line []byte) (Record, bool) {
	var rec Record
	if len(line) < 11 || line[0] != '!' || line[9] != ' ' {
		return rec, false
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[1:9]); err != nil {
		return rec, false
	}
	payload := line[10:]
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	if crc32.Checksum(payload, crcTable) != want {
		return rec, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, false
	}
	return rec, true
}

// encodeLine renders one record as a checksummed journal line (with trailing
// newline).
func encodeLine(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("campaign: encode journal record: %w", err)
	}
	line := make([]byte, 0, len(payload)+12)
	line = append(line, '!')
	sum := crc32.Checksum(payload, crcTable)
	var buf [4]byte
	buf[0], buf[1], buf[2], buf[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
	line = hex.AppendEncode(line, buf[:])
	line = append(line, ' ')
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// Append writes one checksummed record, applies the fsync policy, and folds
// the journal if it outgrew MaxBytes. A short write is repaired (truncate to
// the previous record boundary) and retried once; errors that survive the
// retry — or any fsync/truncate failure — degrade the journal: the record is
// not on disk, no partial bytes are either, and every later Append returns
// ErrJournalDegraded immediately.
func (j *Journal) Append(rec Record) error {
	line, err := encodeLine(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("campaign: journal is closed")
	}
	if j.degraded != nil {
		j.appendErrors++
		return fmt.Errorf("%w: %w", ErrJournalDegraded, j.degraded)
	}
	if err := j.writeLocked(line); err != nil {
		j.appendErrors++
		return err
	}
	j.appended++
	if err := j.policySyncLocked(); err != nil {
		return err
	}
	j.maybeCompactLocked()
	return nil
}

// writeLocked lands one full line on disk or leaves the file exactly as it
// was.
func (j *Journal) writeLocked(line []byte) error {
	for attempt := 0; ; attempt++ {
		n, werr := j.f.Write(line)
		if werr == nil && n == len(line) {
			j.size += int64(len(line))
			return nil
		}
		// Scrub whatever partial bytes landed so no torn record is ever
		// visible to a replay, whether or not we manage to retry.
		if terr := j.f.Truncate(j.size); terr != nil {
			j.degradeLocked(fmt.Errorf("write failed (%v) and truncate repair failed: %w", werr, terr))
			return fmt.Errorf("%w: %w", ErrJournalDegraded, j.degraded)
		}
		if werr == nil {
			werr = io.ErrShortWrite
		}
		if errors.Is(werr, syscall.ENOSPC) {
			// Disk full is persistent: retrying burns the same cliff. Degrade
			// and let the serving layer fail readiness.
			j.degradeLocked(werr)
			return fmt.Errorf("%w: %w", ErrJournalDegraded, j.degraded)
		}
		if attempt >= 1 {
			j.degradeLocked(werr)
			return fmt.Errorf("%w: %w", ErrJournalDegraded, j.degraded)
		}
		j.opts.Logf("campaign: journal %s: torn write repaired, retrying: %v", j.path, werr)
	}
}

// policySyncLocked applies the fsync policy after a successful append.
func (j *Journal) policySyncLocked() error {
	switch j.opts.Sync {
	case SyncAlways:
		return j.syncLocked()
	case SyncInterval:
		if time.Since(j.lastSync) >= j.opts.SyncEvery {
			return j.syncLocked()
		}
	}
	return nil
}

// syncLocked fsyncs the active file. A failed fsync degrades the journal:
// after fsync reports an error, the kernel may have dropped the dirty pages,
// so "retry next time" silently loses records — the one failure mode a
// checkpoint must never paper over.
func (j *Journal) syncLocked() error {
	if err := j.f.Sync(); err != nil {
		j.syncErrors++
		j.degradeLocked(fmt.Errorf("fsync: %w", err))
		return fmt.Errorf("%w: %w", ErrJournalDegraded, j.degraded)
	}
	j.lastSync = time.Now()
	return nil
}

// degradeLocked records the terminal disk error.
func (j *Journal) degradeLocked(err error) {
	if j.degraded == nil {
		j.degraded = err
		j.opts.Logf("campaign: journal %s degraded: %v", j.path, err)
	}
}

// maybeCompactLocked folds the journal when it outgrows MaxBytes. Compaction
// is best-effort: any failure abandons the pass (removing the partial
// output) and leaves the oversized-but-valid journal in place.
func (j *Journal) maybeCompactLocked() {
	if j.opts.MaxBytes <= 0 || j.size < j.opts.MaxBytes || j.degraded != nil {
		return
	}
	if err := j.compactLocked(); err != nil {
		j.opts.Logf("campaign: journal %s: compaction failed (will retry later): %v", j.path, err)
	}
}

// compactLocked rewrites the journal as its folded state and commits it with
// an atomic rename, then re-opens the new file for appending. A crash at any
// instant leaves either the old journal or the complete folded one — never a
// mix.
func (j *Journal) compactLocked() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("pre-compaction sync: %w", err)
	}
	sc, err := readJournal(j.opts.FS, j.path)
	if err != nil {
		return err
	}
	if sc.dropped > 0 {
		j.opts.Logf("campaign: journal %s: compaction dropped %d corrupt line(s)", j.path, sc.dropped)
	}
	folded := CompactRecords(sc.recs)

	tmp := j.path + ".compact"
	tf, err := j.opts.FS.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var newSize int64
	for _, rec := range folded {
		line, lerr := encodeLine(rec)
		if lerr == nil {
			_, lerr = tf.Write(line)
		}
		if lerr != nil {
			tf.Close()
			j.opts.FS.Remove(tmp)
			return lerr
		}
		newSize += int64(len(line))
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		j.opts.FS.Remove(tmp)
		return fmt.Errorf("sync folded journal: %w", err)
	}
	if err := tf.Close(); err != nil {
		j.opts.FS.Remove(tmp)
		return err
	}
	if err := j.opts.FS.Rename(tmp, j.path); err != nil {
		j.opts.FS.Remove(tmp)
		return err
	}
	syncDir(j.path)

	// The old handle now points at the unlinked pre-compaction inode;
	// appends must go to the renamed file.
	nf, err := j.opts.FS.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// Without a handle on the live file nothing further is durable.
		j.degradeLocked(fmt.Errorf("reopen after compaction: %w", err))
		return err
	}
	j.f.Close()
	j.f = nf
	oldSize := j.size
	j.size = newSize
	j.compactions++
	j.opts.Logf("campaign: journal %s: compacted %d -> %d records (%d -> %d bytes)",
		j.path, len(sc.recs), len(folded), oldSize, newSize)
	return nil
}

// syncDir best-effort fsyncs a file's parent directory so a rename survives
// a host crash. Directory handles are outside the FS seam (fault injection
// targets data-path writes), so this goes straight to the OS.
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Degraded returns the terminal disk error once the journal has given up,
// nil while healthy.
func (j *Journal) Degraded() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// Stats snapshots the journal's health counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{
		Appended:       j.appended,
		AppendErrors:   j.appendErrors,
		SyncErrors:     j.syncErrors,
		Compactions:    j.compactions,
		SizeBytes:      j.size,
		LastSyncAge:    -1,
		ReplayDropped:  j.replayDropped,
		TruncatedBytes: j.truncated,
		SyncPolicy:     j.opts.Sync.String(),
	}
	if !j.lastSync.IsZero() {
		st.LastSyncAge = time.Since(j.lastSync)
	}
	if j.degraded != nil {
		st.Degraded = j.degraded.Error()
	}
	return st
}

// Close fsyncs (best-effort on a degraded journal) and closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	var serr error
	if j.degraded == nil {
		if serr = j.f.Sync(); serr == nil {
			j.lastSync = time.Now()
		} else {
			// Same fsync contract as the append path: a failure is never
			// retried, and the journal's final state says so.
			j.syncErrors++
			j.degradeLocked(fmt.Errorf("fsync on close: %w", serr))
		}
	}
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}
