package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDictConcurrentInternString runs the lock-free read side against
// writers that keep growing the dictionary: two writers intern fresh
// strings (forcing the backing array to grow and be republished) while
// four readers decode every Value an Intern call has already returned.
func TestDictConcurrentInternString(t *testing.T) {
	const writers, readers, perWriter = 2, 4, 5000
	d := NewDict()
	name := func(w, i int) string { return fmt.Sprintf("w%d-%d", w, i) }
	var vals [writers][perWriter]Value
	var published [writers]atomic.Int64
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				vals[w][i] = d.Intern(name(w, i))
				published[w].Store(int64(i + 1))
			}
		}(w)
	}
	done := make(chan struct{})
	var reading sync.WaitGroup
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			lastLen := 0
			// check decodes everything published so far; it reports
			// whether the pass saw an error, so a broken read side fails
			// once instead of flooding the log.
			check := func() bool {
				for w := 0; w < writers; w++ {
					n := int(published[w].Load())
					for i := 0; i < n; i++ {
						if got := d.String(vals[w][i]); got != name(w, i) {
							t.Errorf("String(%d) = %q, want %q", vals[w][i], got, name(w, i))
							return false
						}
					}
				}
				l := d.Len()
				if l < lastLen {
					t.Errorf("Len went from %d down to %d", lastLen, l)
					return false
				}
				lastLen = l
				return true
			}
			for {
				select {
				case <-done:
					check()
					return
				default:
					if !check() {
						return
					}
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()

	if got, want := d.Len(), writers*perWriter; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	strs := d.Strings()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if strs[vals[w][i]] != name(w, i) {
				t.Fatalf("Strings()[%d] = %q, want %q", vals[w][i], strs[vals[w][i]], name(w, i))
			}
		}
	}
	for _, v := range []Value{-1, Value(writers * perWriter), 1 << 40} {
		if got, want := d.String(v), fmt.Sprintf("#%d", v); got != want {
			t.Fatalf("never-interned String(%d) = %q, want %q", v, got, want)
		}
	}
}

// TestDictInternAllocs: publishing a fresh string must not allocate per
// string. Only the map's and the array's geometric growth allocate, so
// 100 000 fresh strings take a few hundred allocations, not one each.
func TestDictInternAllocs(t *testing.T) {
	const n = 100000
	strs := make([]string, n)
	for i := range strs {
		strs[i] = fmt.Sprintf("s%d", i)
	}
	allocs := testing.AllocsPerRun(1, func() {
		d := NewDict()
		for _, s := range strs {
			d.Intern(s)
		}
	})
	if allocs >= 1000 {
		t.Fatalf("interning %d fresh strings made %.0f allocations, want < 1000", n, allocs)
	}
}

var dictStringSink atomic.Int64

// BenchmarkDictStringParallel decodes Values of a 10 000-string dictionary
// from every GOMAXPROCS goroutine at once, the way concurrent cursors
// render results. Run it at -cpu 1,2 to see whether readers contend.
func BenchmarkDictStringParallel(b *testing.B) {
	const n = 10000
	d := NewDict()
	for i := 0; i < n; i++ {
		d.Intern(fmt.Sprintf("entity-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		total, v := 0, Value(0)
		for pb.Next() {
			total += len(d.String(v))
			if v++; v == n {
				v = 0
			}
		}
		dictStringSink.Add(int64(total))
	})
}
