package artifact

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"autophase/internal/faults"
	"autophase/internal/ir"
)

func key(i int) Key {
	return Key{FP: ir.Fingerprint{Hi: uint64(i) + 1, Lo: ^uint64(i)}, Kind: KindProfile, Aux: uint64(i) * 3}
}

func payload(i, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i + j)
	}
	return p
}

func mustOpen(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTrip: records put before a flush are readable immediately, and
// readable again from a fresh Open after the flush.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 100; i++ {
		s.Put(key(i), payload(i, 40+i))
	}
	for i := 0; i < 100; i++ {
		got, ok := s.Get(key(i))
		if !ok {
			t.Fatalf("record %d unreadable before flush", i)
		}
		if want := payload(i, 40+i); string(got) != string(want) {
			t.Fatalf("record %d: wrong payload before flush", i)
		}
	}
	s.Close()

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	for i := 0; i < 100; i++ {
		got, ok := s2.Get(key(i))
		if !ok {
			t.Fatalf("record %d lost across restart", i)
		}
		if want := payload(i, 40+i); string(got) != string(want) {
			t.Fatalf("record %d: wrong payload after restart", i)
		}
	}
	if st := s2.Stats(); st.Hits != 100 || st.Corrupt != 0 {
		t.Fatalf("stats after warm reads: %+v", st)
	}
}

// TestKindAndAuxSeparateNamespaces: same fingerprint, different kind or aux
// → different records.
func TestKindAndAuxSeparateNamespaces(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	fp := ir.Fingerprint{Hi: 7, Lo: 9}
	s.Put(Key{FP: fp, Kind: KindProfile, Aux: 1}, []byte("profile"))
	s.Put(Key{FP: fp, Kind: KindFeatures}, []byte("features"))
	s.Put(Key{FP: fp, Kind: KindProfile, Aux: 2}, []byte("profile2"))
	for _, tc := range []struct {
		k    Key
		want string
	}{
		{Key{FP: fp, Kind: KindProfile, Aux: 1}, "profile"},
		{Key{FP: fp, Kind: KindFeatures}, "features"},
		{Key{FP: fp, Kind: KindProfile, Aux: 2}, "profile2"},
	} {
		got, ok := s.Get(tc.k)
		if !ok || string(got) != tc.want {
			t.Fatalf("Get(%+v) = %q, %v; want %q", tc.k, got, ok, tc.want)
		}
	}
	if _, ok := s.Get(Key{FP: ir.Fingerprint{Hi: 7, Lo: 10}, Kind: KindFeatures}); ok {
		t.Fatal("unwritten key of a live kind resolved to a record")
	}
}

// TestDuplicatePutDropped: the first value for a key wins; duplicate Puts
// neither grow pending nor recount writes.
func TestDuplicatePutDropped(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	s.Put(key(1), []byte("first"))
	s.Put(key(1), []byte("second"))
	if got, _ := s.Get(key(1)); string(got) != "first" {
		t.Fatalf("duplicate Put overwrote: %q", got)
	}
	if st := s.Stats(); st.Writes != 1 {
		t.Fatalf("writes = %d, want 1", st.Writes)
	}
}

// TestCorruptRecordIsMiss: flipping a byte inside one record's payload
// drops exactly that record at the next Open; every other record in the
// same segment survives, and nothing errors.
func TestCorruptRecordIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 10; i++ {
		s.Put(key(i), payload(i, 100))
	}
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the 4th record's payload: headerLen + 3 full
	// records + this record's header + a payload offset.
	recLen := recHeaderLen + bodyFixed + 100
	off := headerLen + 3*recLen + recHeaderLen + bodyFixed + 50
	data[off] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, ok := s2.Get(key(3)); ok {
		t.Fatal("corrupted record still readable")
	}
	for _, i := range []int{0, 1, 2, 4, 5, 6, 7, 8, 9} {
		if _, ok := s2.Get(key(i)); !ok {
			t.Fatalf("intact record %d lost to a neighbour's corruption", i)
		}
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", st.Corrupt)
	}

	// The miss is rewritten: a fresh Put for the lost key persists again.
	s2.Put(key(3), payload(3, 100))
	s2.Flush()
	s2.Close()
	s3 := mustOpen(t, dir, 0)
	defer s3.Close()
	if _, ok := s3.Get(key(3)); !ok {
		t.Fatal("rewritten record did not persist")
	}
}

// TestTruncatedSegmentLoadsPrefix: a short read (torn tail) keeps every
// record before the tear and treats the rest as misses.
func TestTruncatedSegmentLoadsPrefix(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 10; i++ {
		s.Put(key(i), payload(i, 100))
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	data, _ := os.ReadFile(segs[0])
	recLen := recHeaderLen + bodyFixed + 100
	cut := headerLen + 5*recLen + recLen/2 // mid-record tear
	if err := os.WriteFile(segs[0], data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	for i := 0; i < 5; i++ {
		if _, ok := s2.Get(key(i)); !ok {
			t.Fatalf("record %d before the tear lost", i)
		}
	}
	for i := 5; i < 10; i++ {
		if _, ok := s2.Get(key(i)); ok {
			t.Fatalf("record %d after the tear readable", i)
		}
	}
	if st := s2.Stats(); st.Corrupt == 0 {
		t.Fatal("torn tail not counted as corrupt")
	}
}

// TestVersionMismatchDropsSegment: a segment with a future version is
// removed wholesale and every record in it is a miss.
func TestVersionMismatchDropsSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put(key(1), []byte("x"))
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	data, _ := os.ReadFile(segs[0])
	binary.LittleEndian.PutUint16(data[4:], segVersion+1)
	os.WriteFile(segs[0], data, 0o644)

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, ok := s2.Get(key(1)); ok {
		t.Fatal("record from a future-version segment readable")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", st.Corrupt)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg")); len(left) != 0 {
		t.Fatal("version-mismatched segment not deleted")
	}
}

// TestRetiredKindSkippedOnLoad: a well-formed record of a retired kind (3,
// the structural graph feature block; 4, serialized VM bytecode) left in an
// old store is neither indexed nor counted corrupt when the store reopens;
// the record beside it loads as usual.
func TestRetiredKindSkippedOnLoad(t *testing.T) {
	for _, kind := range []Kind{3, 4} {
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, 0)
			retired := Key{FP: key(1).FP, Kind: kind, Aux: 5}
			s.Put(retired, []byte("retired payload"))
			s.Put(key(2), []byte("profile"))
			s.Close()

			s2 := mustOpen(t, dir, 0)
			defer s2.Close()
			if _, ok := s2.Get(retired); ok {
				t.Fatal("retired-kind record indexed")
			}
			if got, ok := s2.Get(key(2)); !ok || string(got) != "profile" {
				t.Fatalf("record beside the retired one: %q, %v", got, ok)
			}
			if n := s2.Len(); n != 1 {
				t.Fatalf("len = %d, want 1", n)
			}
			if st := s2.Stats(); st.Corrupt != 0 {
				t.Fatalf("corrupt = %d, want 0", st.Corrupt)
			}
		})
	}
}

// flushedSegment puts recs into a fresh store and returns the one segment
// file its Close commits.
func flushedSegment(tb testing.TB, recs ...record) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		s.Put(r.key, r.data)
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != 1 {
		tb.Fatalf("want 1 flushed segment, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// segmentPrefix is the reference reading of one segment file. ok is false
// when the header is unreadable, so Open must delete the file. Otherwise
// want holds what Open must index: every checksum-valid record of a live
// kind up to the first framing break, the last copy of a key winning.
func segmentPrefix(data []byte) (want map[Key][]byte, ok bool) {
	if len(data) < headerLen || string(data[:4]) != segMagic ||
		binary.LittleEndian.Uint16(data[4:]) != segVersion {
		return nil, false
	}
	want = make(map[Key][]byte)
	for rest := data[headerLen:]; len(rest) >= recHeaderLen; {
		n := int(binary.LittleEndian.Uint32(rest))
		sum := binary.LittleEndian.Uint64(rest[4:])
		rest = rest[recHeaderLen:]
		if n < bodyFixed || n > len(rest) {
			break
		}
		body := rest[:n]
		rest = rest[n:]
		k := Key{
			FP:   ir.Fingerprint{Hi: binary.LittleEndian.Uint64(body), Lo: binary.LittleEndian.Uint64(body[8:])},
			Kind: Kind(body[16]),
			Aux:  binary.LittleEndian.Uint64(body[17:]),
		}
		if fnv1a(body) == sum && readKind(k.Kind) {
			want[k] = body[bodyFixed:]
		}
	}
	return want, true
}

// FuzzLoadSegment feeds arbitrary bytes to Open as a segment file. Open
// must not panic, must either index exactly the segment's readable record
// prefix or delete the file, and must never index a payload of maxRecord
// bytes or more.
func FuzzLoadSegment(f *testing.F) {
	valid := flushedSegment(f,
		record{key(0), payload(0, 24)},
		record{key(1), payload(1, 25)},
		record{key(2), payload(2, 26)},
		record{Key{FP: key(0).FP, Kind: KindFeatures}, payload(9, 8*4)},
	)
	edit := func(fn func([]byte)) []byte {
		c := append([]byte(nil), valid...)
		fn(c)
		return c
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-10]) // torn tail
	f.Add(edit(func(c []byte) { c[headerLen+recHeaderLen+bodyFixed+3] ^= 0x10 }))
	f.Add(edit(func(c []byte) { c[0] = 'X' }))
	f.Add(edit(func(c []byte) { binary.LittleEndian.PutUint16(c[4:], segVersion+1) }))
	f.Add(flushedSegment(f,
		record{Key{FP: key(1).FP, Kind: 3}, payload(3, 20*8)},
		record{Key{FP: key(1).FP, Kind: 4, Aux: 5}, []byte("bytecode")},
		record{key(2), []byte("profile")},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-000000000001.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		want, ok := segmentPrefix(data)
		_, statErr := os.Stat(path)
		if kept := statErr == nil; kept != ok {
			t.Fatalf("segment kept = %v, want %v", kept, ok)
		}
		if n := s.Len(); n != len(want) {
			t.Fatalf("indexed %d records, want %d", n, len(want))
		}
		for k, w := range want {
			got, hit := s.Get(k)
			if !hit || string(got) != string(w) {
				t.Fatalf("Get(%+v) = %q, %v; want %q", k, got, hit, w)
			}
			if len(got) >= maxRecord {
				t.Fatalf("Get(%+v) returned %d bytes, maxRecord is %d", k, len(got), maxRecord)
			}
		}
	})
}

// TestBudgetEvictsOldestSegments: exceeding the byte budget deletes whole
// segments oldest-first; newest records survive.
func TestBudgetEvictsOldestSegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 64<<10)
	// Each batch flushes its own segment (~33 KB): by the fourth segment
	// the first must be gone.
	for batch := 0; batch < 4; batch++ {
		for i := 0; i < 32; i++ {
			s.Put(key(batch*32+i), payload(i, 1024))
		}
		s.Flush()
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions at a 64KiB budget: %+v", st)
	}
	if _, ok := s.Get(key(0)); ok {
		t.Fatal("oldest segment's record survived eviction")
	}
	if _, ok := s.Get(key(3*32 + 1)); !ok {
		t.Fatal("newest segment's record evicted")
	}
	s.Close()

	// The budget also binds at Open.
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, ok := s2.Get(key(3*32 + 1)); !ok {
		t.Fatal("surviving record lost across restart")
	}
}

// TestCrashMidWrite: the flusher dying partway through a segment write (the
// injected stand-in for a process kill) leaves a store that opens cleanly;
// the records of the torn commit are misses, previously committed records
// are intact, and no *.tmp debris survives the reopen.
func TestCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 5; i++ {
		s.Put(key(i), payload(i, 64))
	}
	s.Flush() // first segment commits cleanly

	for i := 5; i < 10; i++ {
		s.Put(key(i), payload(i, 64))
	}
	testWriteLimit.Store(100) // kill the next segment write after 100 bytes
	s.Flush()
	// Do not Close (which would drain nothing new but reset the limit
	// bookkeeping); simulate the process dying here.

	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 1 {
		t.Fatalf("expected exactly the partial temp file, got %v", tmps)
	}

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	for i := 0; i < 5; i++ {
		if _, ok := s2.Get(key(i)); !ok {
			t.Fatalf("committed record %d lost to the crash", i)
		}
	}
	for i := 5; i < 10; i++ {
		if _, ok := s2.Get(key(i)); ok {
			t.Fatalf("record %d of the torn commit readable", i)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatal("stale temp file survived reopen")
	}
	// The lost records rewrite cleanly.
	for i := 5; i < 10; i++ {
		s2.Put(key(i), payload(i, 64))
	}
	s2.Flush()
	if st := s2.Stats(); st.Writes != 5 {
		t.Fatalf("rewrites = %d, want 5", st.Writes)
	}
}

// TestInjectedDiskCorrupt: the disk-corrupt fault point turns decoded
// records into misses at the configured rate and counts them.
func TestInjectedDiskCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 200; i++ {
		s.Put(key(i), payload(i, 16))
	}
	s.Close()

	spec, err := faults.ParseSpec("disk-corrupt:0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(spec)
	defer faults.Disable()
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	st := s2.Stats()
	if st.Corrupt == 0 || st.Corrupt == 200 {
		t.Fatalf("injected corruption hit %d/200 records at rate 0.5", st.Corrupt)
	}
	if int64(s2.Len())+st.Corrupt != 200 {
		t.Fatalf("len %d + corrupt %d != 200", s2.Len(), st.Corrupt)
	}
}

// TestConcurrentPutGet: racing writers and readers over overlapping keys,
// past the flush threshold, under -race.
func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := key(i % 97)
				if w%2 == 0 {
					s.Put(k, payload(i%97, 256))
				} else if got, ok := s.Get(k); ok {
					if want := payload(i%97, 256); string(got) != string(want) {
						panic(fmt.Sprintf("torn read for %d", i%97))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s.Flush()
	if s.Len() != 97 {
		t.Fatalf("len = %d, want 97", s.Len())
	}
}

// TestMixAuxAndHashString: key-input hashing is deterministic and
// order-sensitive.
func TestMixAuxAndHashString(t *testing.T) {
	if MixAux(1, 2) == MixAux(2, 1) {
		t.Fatal("MixAux is order-insensitive")
	}
	if MixAux(1, 2) != MixAux(1, 2) {
		t.Fatal("MixAux not deterministic")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("HashString collision on trivial inputs")
	}
}
