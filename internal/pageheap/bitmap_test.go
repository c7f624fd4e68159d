package pageheap

import (
	"testing"
	"testing/quick"
)

func TestBitmapSetClearGet(t *testing.T) {
	var b bitmap256
	b.set(0)
	b.set(63)
	b.set(64)
	b.set(255)
	for _, i := range []int{0, 63, 64, 255} {
		if !b.get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if popcount(b[:]) != 4 {
		t.Fatalf("count = %d", popcount(b[:]))
	}
	b.clear(64)
	if b.get(64) || popcount(b[:]) != 3 {
		t.Fatal("clear failed")
	}
}

func TestBitmapRanges(t *testing.T) {
	var b bitmap256
	setRange(b[:], 10, 20)
	if popcount(b[:]) != 20 {
		t.Fatalf("count = %d", popcount(b[:]))
	}
	if countRange(b[:], 0, 10) != 0 || countRange(b[:], 10, 20) != 20 || countRange(b[:], 5, 10) != 5 {
		t.Fatal("countRange wrong")
	}
	clearRange(b[:], 15, 5)
	if popcount(b[:]) != 15 {
		t.Fatalf("count after clearRange = %d", popcount(b[:]))
	}
}

func TestFindFreeRun(t *testing.T) {
	var b bitmap256
	if got := findFreeRun(b[:], 256); got != 0 {
		t.Fatalf("empty bitmap findFreeRun(256) = %d", got)
	}
	setRange(b[:], 0, 100)
	if got := findFreeRun(b[:], 156); got != 100 {
		t.Fatalf("findFreeRun(156) = %d", got)
	}
	if got := findFreeRun(b[:], 157); got != -1 {
		t.Fatalf("findFreeRun(157) = %d, want -1", got)
	}
	setRange(b[:], 150, 106)
	// Free gap now [100,150).
	if got := findFreeRun(b[:], 50); got != 100 {
		t.Fatalf("findFreeRun(50) = %d", got)
	}
	if got := findFreeRun(b[:], 51); got != -1 {
		t.Fatalf("findFreeRun(51) = %d", got)
	}
}

func TestLongestFreeRun(t *testing.T) {
	var b bitmap256
	if b.longestFreeRun() != 256 {
		t.Fatal("empty longest run")
	}
	setRange(b[:], 0, 256)
	if b.longestFreeRun() != 0 {
		t.Fatal("full longest run")
	}
	clearRange(b[:], 10, 30)
	clearRange(b[:], 100, 45)
	if got := b.longestFreeRun(); got != 45 {
		t.Fatalf("longestFreeRun = %d", got)
	}
}

func TestBitmapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		var b bitmap256
		shadow := map[int]bool{}
		for _, op := range ops {
			i := int(op % 256)
			if op&0x8000 != 0 {
				b.clear(i)
				delete(shadow, i)
			} else {
				b.set(i)
				shadow[i] = true
			}
		}
		if popcount(b[:]) != len(shadow) {
			return false
		}
		for i := 0; i < 256; i++ {
			if b.get(i) != shadow[i] {
				return false
			}
		}
		// longestFreeRun must match a brute-force scan.
		best, run := 0, 0
		for i := 0; i < 256; i++ {
			if shadow[i] {
				run = 0
			} else if run++; run > best {
				best = run
			}
		}
		if b.longestFreeRun() != best {
			return false
		}
		// findFreeRun and countRange must match brute-force scans for a
		// spread of run lengths and ranges.
		for _, n := range []int{1, 2, 3, 7, 64, 65, 200, 256} {
			wantIdx, r, start := -1, 0, 0
			for i := 0; i < 256 && wantIdx < 0; i++ {
				if shadow[i] {
					r, start = 0, i+1
				} else if r++; r == n {
					wantIdx = start
				}
			}
			if findFreeRun(b[:], n) != wantIdx {
				return false
			}
			lo := n - 1
			cnt := 0
			for i := lo; i < 256; i++ {
				if shadow[i] {
					cnt++
				}
			}
			if countRange(b[:], lo, 256-lo) != cnt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
