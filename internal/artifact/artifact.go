// Package artifact is the persistent, content-addressed tier beneath the
// in-memory caches: profile verdicts and memoized feature vectors, keyed by
// the structural IR fingerprint plus whatever configuration the artifact
// depends on. Everything in the store is a pure function of its key, so the
// store is a cache in the strict sense — any record may be dropped,
// corrupted or lost at any point and the only observable effect is that
// the producer runs again. That is the load-bearing design rule: every
// failure mode (torn write, flipped byte, version skew, short read, missing
// file) is treated as a miss, never as an error, and the record is simply
// rewritten.
//
// On disk the store is a directory of immutable segment files. Records are
// length-prefixed and individually checksummed; segments are committed by
// writing a temp file and renaming it into place, so a crash mid-write
// leaves at worst an ignorable *.tmp file, never a half-visible segment.
// Writes go through an asynchronous write-behind flusher — Put queues the
// record in memory (where it is immediately readable) and returns; the hot
// profiling path never blocks on disk. A size budget evicts whole segments
// oldest-first, so the store converges on the working set's most recently
// rewritten artifacts.
package artifact

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"autophase/internal/faults"
	"autophase/internal/ir"
)

// Kind namespaces the payload types sharing one store.
type Kind uint8

// Record kinds.
const (
	// KindProfile is a profile verdict (cycles/area/steps/exit) produced by
	// any engine; Aux binds it to the schedule config, the execution limits
	// and the engine policy that produced it.
	KindProfile Kind = 1
	// KindFeatures is a 56-feature vector; features are a pure function of
	// the IR, so Aux is zero.
	KindFeatures Kind = 2
	// Kinds 3 and 4 are retired: 3 held a structural graph feature block
	// and 4 serialized VM bytecode, neither of which any build reads any
	// more. Never reuse the values; loadSegment skips such records left in
	// old stores.
)

// readKind reports whether this build reads records of kind k. Records of
// any other kind (retired ones, or ones a newer build wrote) are skipped at
// load time rather than indexed, so they hold no memory.
func readKind(k Kind) bool {
	return k == KindProfile || k == KindFeatures
}

// Key addresses one record: the structural fingerprint of the IR the
// artifact was derived from, the artifact kind, and a kind-specific hash of
// every configuration input the artifact's value depends on. Two processes
// that compute the same key are guaranteed (by the engines' bit-identical
// determinism contract) to compute the same value, which is what makes the
// store content-addressed rather than merely keyed.
type Key struct {
	FP   ir.Fingerprint
	Kind Kind
	Aux  uint64
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits      int64 `json:"hits"`      // Get calls answered from the store
	Misses    int64 `json:"misses"`    // Get calls that found nothing
	Writes    int64 `json:"writes"`    // records accepted by Put (deduplicated)
	Bytes     int64 `json:"bytes"`     // record bytes accepted for write-behind (queued or committed)
	Corrupt   int64 `json:"corrupt"`   // records dropped as corrupt (checksum, framing, version, injected)
	Evictions int64 `json:"evictions"` // whole segments evicted by the size budget
	Segments  int64 `json:"segments"`  // segment files currently on disk
	Pending   int64 `json:"pending"`   // records queued but not yet committed
}

// Store is the disk-backed artifact cache. All methods are safe for
// concurrent use. The zero value is not usable; call Open.
type Store struct {
	dir    string
	budget int64

	mu      sync.Mutex
	index   map[Key]entry // guarded by mu; every readable record
	pending []record      // guarded by mu; queued for the next segment
	pendSz  int64         // guarded by mu; encoded size of pending
	segs    []segInfo     // guarded by mu; committed segments, oldest first
	nextSeq int64         // guarded by mu; next segment sequence number
	closed  bool          // guarded by mu

	flushMu  sync.Mutex // serializes segment commits (flusher vs Flush)
	wake     chan struct{}
	done     chan struct{}
	draining sync.WaitGroup

	hits      atomic.Int64
	misses    atomic.Int64
	writes    atomic.Int64
	bytes     atomic.Int64
	corrupt   atomic.Int64
	evictions atomic.Int64
}

type entry struct {
	data []byte
	seg  int64 // segment sequence holding the record; -1 while pending
}

type record struct {
	key  Key
	data []byte
}

type segInfo struct {
	seq  int64
	path string
	size int64
}

const (
	segMagic   = "APAS"
	segVersion = 1
	// maxRecord bounds one record's body so a corrupted length prefix can
	// never drive a giant allocation.
	maxRecord = 64 << 20
	// flushBytes is the write-behind threshold: the flusher commits a
	// segment once this much record data is queued (Flush and Close commit
	// whatever is pending regardless).
	flushBytes = 256 << 10
	// headerLen is magic + u16 version + u16 reserved.
	headerLen = 8
	// recHeaderLen is u32 body length + u64 checksum.
	recHeaderLen = 12
	// bodyFixed is the fixed part of a record body: fp (16) + kind (1) +
	// aux (8).
	bodyFixed = 25
)

// DefaultBudget bounds the store at 512 MiB unless the caller says
// otherwise.
const DefaultBudget = 512 << 20

// Open loads (or creates) the store rooted at dir. Every readable record in
// every committed segment is indexed into memory; corrupt records, stale
// temp files and version-mismatched segments are dropped and counted, never
// reported as errors — the only errors Open returns are directory-level
// (cannot create, cannot list). budget <= 0 means DefaultBudget.
func Open(dir string, budget int64) (*Store, error) {
	if budget <= 0 {
		budget = DefaultBudget
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open %s: %w", dir, err)
	}
	s := &Store{
		dir:    dir,
		budget: budget,
		index:  make(map[Key]entry),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.evictLocked()
	s.draining.Add(1)
	go s.flusher()
	return s, nil
}

// load scans the directory: abandoned temp files are removed, segments are
// parsed oldest-first so a key rewritten after corruption resolves to its
// newest copy.
//
//contractvet:locked segs,nextSeq -- runs inside Open before the store is shared; no concurrent access exists yet
func (s *Store) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("artifact: open %s: %w", s.dir, err)
	}
	for _, de := range entries {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash mid-commit: the segment was never renamed into place,
			// so its contents were never promised to anyone.
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		seq, ok := parseSegName(name)
		if !ok {
			continue
		}
		path := filepath.Join(s.dir, name)
		info, err := de.Info()
		if err != nil {
			continue
		}
		s.segs = append(s.segs, segInfo{seq: seq, path: path, size: info.Size()})
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].seq < s.segs[j].seq })
	kept := s.segs[:0]
	for _, seg := range s.segs {
		if s.loadSegment(seg) {
			kept = append(kept, seg)
		} else {
			// Version skew or an unreadable header: the whole file is dead
			// weight under the budget, so it is deleted rather than skipped.
			os.Remove(seg.path)
		}
	}
	s.segs = kept
	return nil
}

// loadSegment indexes one segment's readable records. It returns false when
// the file should be deleted outright (unreadable, wrong magic or version);
// record-level corruption only skips the damaged tail or record.
//
//contractvet:locked index -- called only from load, inside Open before the store is shared
func (s *Store) loadSegment(seg segInfo) bool {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return false
	}
	if len(data) < headerLen || string(data[:4]) != segMagic ||
		binary.LittleEndian.Uint16(data[4:6]) != segVersion {
		s.corrupt.Add(1)
		return false
	}
	off := headerLen
	for off < len(data) {
		if len(data)-off < recHeaderLen {
			s.corrupt.Add(1) // short read: a torn tail
			break
		}
		bodyLen := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint64(data[off+4:])
		off += recHeaderLen
		if bodyLen < bodyFixed || bodyLen > maxRecord || bodyLen > len(data)-off {
			// Framing is gone; nothing after this point can be trusted.
			s.corrupt.Add(1)
			break
		}
		body := data[off : off+bodyLen]
		off += bodyLen
		if fnv1a(body) != sum || faults.Hit(faults.DiskCorrupt) {
			// A flipped byte inside one record (or the chaos injector
			// simulating one): the framing is intact, so later records in
			// the same segment are still good.
			s.corrupt.Add(1)
			continue
		}
		key := Key{
			FP:   ir.Fingerprint{Hi: binary.LittleEndian.Uint64(body), Lo: binary.LittleEndian.Uint64(body[8:])},
			Kind: Kind(body[16]),
			Aux:  binary.LittleEndian.Uint64(body[17:]),
		}
		if !readKind(key.Kind) {
			// Well formed but of a kind nobody here reads: not corrupt,
			// just not worth indexing.
			continue
		}
		payload := make([]byte, bodyLen-bodyFixed)
		copy(payload, body[bodyFixed:])
		s.index[key] = entry{data: payload, seg: seg.seq}
	}
	return true
}

func parseSegName(name string) (int64, bool) {
	rest, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".seg")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// Get returns the payload stored under k. The returned slice is shared and
// must be treated as immutable.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.index[k]
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return e.data, true
}

// NoteCorrupt records a corruption detected above the store (a record whose
// checksum held but whose payload failed its consumer's decode or verify
// step), and drops the record so the producer's rewrite lands.
func (s *Store) NoteCorrupt(k Key) {
	s.corrupt.Add(1)
	s.mu.Lock()
	delete(s.index, k)
	s.mu.Unlock()
}

// Put queues the payload for write-behind persistence under k and makes it
// immediately readable. The hot path never blocks on disk: the actual
// segment commit happens on the flusher goroutine. Duplicate keys are
// dropped (records are pure functions of their key, so the first value is
// as good as any).
func (s *Store) Put(k Key, payload []byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, dup := s.index[k]; dup {
		s.mu.Unlock()
		return
	}
	data := append([]byte(nil), payload...)
	s.index[k] = entry{data: data, seg: -1}
	s.pending = append(s.pending, record{key: k, data: data})
	s.pendSz += int64(recHeaderLen + bodyFixed + len(data))
	kick := s.pendSz >= flushBytes
	s.mu.Unlock()
	s.writes.Add(1)
	s.bytes.Add(int64(recHeaderLen + bodyFixed + len(data)))
	if kick {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// flusher is the write-behind goroutine: it commits a segment whenever the
// pending queue crosses the threshold, and drains on Close.
func (s *Store) flusher() {
	defer s.draining.Done()
	for {
		select {
		case <-s.wake:
			s.flushOnce(false)
		case <-s.done:
			s.flushOnce(true)
			return
		}
	}
}

// Flush synchronously commits every pending record. Tests and CLI exits use
// it; the hot path never does.
func (s *Store) Flush() {
	s.flushOnce(true)
}

// flushOnce commits pending records into one new segment. force commits any
// nonempty queue; otherwise only a threshold-crossing queue is written (the
// flusher may be woken late, after Flush already drained the queue).
func (s *Store) flushOnce(force bool) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	if len(s.pending) == 0 || (!force && s.pendSz < flushBytes) {
		s.mu.Unlock()
		return
	}
	recs := s.pending
	s.pending = nil
	s.pendSz = 0
	seq := s.nextSeq
	s.nextSeq++
	s.mu.Unlock()

	buf := make([]byte, headerLen, headerLen+64<<10)
	copy(buf, segMagic)
	binary.LittleEndian.PutUint16(buf[4:], segVersion)
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}

	final := filepath.Join(s.dir, fmt.Sprintf("seg-%012d.seg", seq))
	if !writeSegment(final, buf) {
		// The write failed (disk full, injected crash): the records stay
		// readable from memory and simply are not persisted. Re-queueing
		// them would retry a disk that just failed; dropping is the
		// cache-semantics answer.
		return
	}

	s.mu.Lock()
	s.segs = append(s.segs, segInfo{seq: seq, path: final, size: int64(len(buf))})
	for _, r := range recs {
		if e, ok := s.index[r.key]; ok && e.seg == -1 {
			e.seg = seq
			s.index[r.key] = e
		}
	}
	s.evictLocked()
	s.mu.Unlock()
}

func appendRecord(buf []byte, r record) []byte {
	bodyLen := bodyFixed + len(r.data)
	var hdr [recHeaderLen]byte
	var body [bodyFixed]byte
	binary.LittleEndian.PutUint64(body[:], r.key.FP.Hi)
	binary.LittleEndian.PutUint64(body[8:], r.key.FP.Lo)
	body[16] = byte(r.key.Kind)
	binary.LittleEndian.PutUint64(body[17:], r.key.Aux)
	sum := fnv1aInit()
	sum = fnv1aAdd(sum, body[:])
	sum = fnv1aAdd(sum, r.data)
	binary.LittleEndian.PutUint32(hdr[:], uint32(bodyLen))
	binary.LittleEndian.PutUint64(hdr[4:], sum)
	buf = append(buf, hdr[:]...)
	buf = append(buf, body[:]...)
	return append(buf, r.data...)
}

// testWriteLimit, when positive, truncates the next segment write after
// that many bytes and fails the commit — the crash-safety tests' stand-in
// for killing the process mid-write.
var testWriteLimit atomic.Int64

// writeSegment commits buf crash-safely: full write to a temp file in the
// same directory, then an atomic rename. Readers never observe a partial
// segment under POSIX rename semantics; a crash between write and rename
// leaves only a *.tmp file that the next Open removes.
func writeSegment(final string, buf []byte) bool {
	tmp := final + ".tmp"
	if lim := testWriteLimit.Swap(0); lim > 0 && lim < int64(len(buf)) {
		os.WriteFile(tmp, buf[:lim], 0o644) // the injected kill: partial temp, no rename
		return false
	}
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		os.Remove(tmp)
		return false
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return false
	}
	return true
}

// evictLocked enforces the size budget by deleting whole segments oldest
// first. Records whose newest copy lived in an evicted segment disappear
// from the index; rewrites land in fresh segments, so the store converges
// on the live working set. Callers hold s.mu.
//
//contractvet:locked index,segs -- callers hold mu
func (s *Store) evictLocked() {
	var total int64
	for _, seg := range s.segs {
		total += seg.size
	}
	for total > s.budget && len(s.segs) > 1 {
		victim := s.segs[0]
		s.segs = s.segs[1:]
		total -= victim.size
		os.Remove(victim.path)
		for k, e := range s.index {
			if e.seg == victim.seq {
				delete(s.index, k)
			}
		}
		s.evictions.Add(1)
	}
}

// Close drains the pending queue to disk and stops the flusher. The store
// is unusable afterwards (Get misses, Put drops).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.draining.Wait()
	s.mu.Lock()
	s.index = map[Key]entry{}
	s.mu.Unlock()
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	segs := int64(len(s.segs))
	pend := int64(len(s.pending))
	s.mu.Unlock()
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Writes:    s.writes.Load(),
		Bytes:     s.bytes.Load(),
		Corrupt:   s.corrupt.Load(),
		Evictions: s.evictions.Load(),
		Segments:  segs,
		Pending:   pend,
	}
}

// Len reports the number of readable records (committed + pending).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// MixAux folds any number of configuration hashes into one Aux value with
// the splitmix64 finalizer, so key construction at every call site composes
// the same way.
func MixAux(parts ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}

// HashString hashes a printf-rendered configuration value (FNV-1a); the
// stable %#v rendering of a flat config struct is a deterministic,
// process-independent key input.
func HashString(v string) uint64 {
	h := fnv1aInit()
	return fnv1aAdd(h, []byte(v))
}

func fnv1aInit() uint64 { return 14695981039346656037 }

func fnv1aAdd(h uint64, data []byte) uint64 {
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

func fnv1a(data []byte) uint64 { return fnv1aAdd(fnv1aInit(), data) }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
