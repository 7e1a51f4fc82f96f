package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"turbulence/internal/core"
)

// These benchmarks use only the store's exported API, so the same file
// measures any store format.

// benchDigest is a cell digest's shape: 64 hex characters.
func benchDigest(i int) string {
	sum := sha256.Sum256([]byte(strconv.Itoa(i)))
	return hex.EncodeToString(sum[:])
}

// benchCmp is a cell result with every profile field set, as a real
// sweep's are.
func benchCmp(i int) *core.Comparison {
	p := func(k float64) core.FlowProfile {
		return core.FlowProfile{
			Packets: 3000 + i, Datagrams: 1900 + i,
			MeanSize: 900.5 * k, SizeCV: 0.61 * k,
			MeanInterarrival: 0.021 * k, InterarrivalCV: 0.8 * k,
			FragShare: 0.33 * k, MeanTrain: 1.6 * k, MaxWireSize: 1514,
			AvgRateBps: 284_000 * k, BurstRatio: 2.5 * k, CBR: i%2 == 0,
		}
	}
	return &core.Comparison{Set: 1 + i%6, ClassName: "high", Real: p(1), WMP: p(1.1)}
}

// fillStore writes a store of n entries in dir.
func fillStore(b *testing.B, dir string, n int) {
	b.Helper()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Insert(benchDigest(i), benchCmp(i))
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreOpen opens a store of 342 entries (dispatch-warm's
// restored store) and of 10,000. One op is Open plus Close; disk_B/entry
// is the file's size over its entries.
func BenchmarkStoreOpen(b *testing.B) {
	for _, n := range []int{342, 10_000} {
		b.Run("entries="+strconv.Itoa(n), func(b *testing.B) {
			dir := b.TempDir()
			fillStore(b, dir, n)
			b.ReportAllocs()
			b.ResetTimer()
			var st Stats
			for i := 0; i < b.N; i++ {
				s, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if st = s.Stats(); st.Entries != n {
					b.Fatalf("opened %d entries, want %d", st.Entries, n)
				}
				s.Close()
			}
			b.ReportMetric(float64(st.Bytes)/float64(n), "disk_B/entry")
		})
	}
}

// BenchmarkStoreInsert appends one new entry per op. The store restarts
// empty every 10,000 inserts, untimed, so the file stays small.
func BenchmarkStoreInsert(b *testing.B) {
	const perStore = 10_000
	digests := make([]string, perStore)
	for i := range digests {
		digests[i] = benchDigest(i)
	}
	cmp := benchCmp(0)
	var s *Store
	reopen := func() {
		if s != nil {
			s.Close()
		}
		dir := b.TempDir()
		var err error
		if s, err = Open(dir); err != nil {
			b.Fatal(err)
		}
	}
	reopen()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%perStore == 0 {
			b.StopTimer()
			reopen()
			b.StartTimer()
		}
		s.Insert(digests[i%perStore], cmp)
	}
	b.StopTimer()
	s.Close()
}

// BenchmarkStoreLookup looks up held digests of a 10,000-entry store
// round robin.
func BenchmarkStoreLookup(b *testing.B) {
	const n = 10_000
	dir := b.TempDir()
	fillStore(b, dir, n)
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	digests := make([]string, n)
	for i := range digests {
		digests[i] = benchDigest(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Lookup(digests[i%n]); !ok {
			b.Fatal("miss on a held digest")
		}
	}
}
