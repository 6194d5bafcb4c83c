package esm

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Property: appendLayout conserves bytes, fills all but the last two
// pieces, and keeps the last two at least half full (§3.4's append rule).
func TestAppendLayoutProperties(t *testing.T) {
	const cap = 4096
	prop := func(raw uint32) bool {
		n := int64(raw%(1<<22)) + 1
		pieces := appendLayout(n, cap)
		var sum int64
		for _, p := range pieces {
			if p <= 0 || p > cap {
				return false
			}
			sum += p
		}
		if sum != n {
			return false
		}
		if len(pieces) == 1 {
			return n <= cap
		}
		for _, p := range pieces[:len(pieces)-2] {
			if p != cap {
				return false
			}
		}
		last2 := pieces[len(pieces)-2:]
		return 2*last2[0] >= cap && 2*last2[1] >= cap
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: evenLayout conserves bytes with pieces within one byte of each
// other and never more than cap (the basic insert distribution).
func TestEvenLayoutProperties(t *testing.T) {
	const cap = 4096
	prop := func(raw uint32) bool {
		n := int64(raw%(1<<22)) + 1
		pieces := evenLayout(n, cap)
		var sum, min, max int64
		min = int64(1) << 62
		for _, p := range pieces {
			if p <= 0 || p > cap {
				return false
			}
			sum += p
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
		return sum == n && max-min <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: evenLayout pieces are at least half full whenever more than one
// piece exists — the ESM leaf occupancy invariant after a basic split.
func TestEvenLayoutHalfFull(t *testing.T) {
	const cap = 4096
	prop := func(raw uint32) bool {
		n := int64(raw%(1<<22)) + cap + 1 // force at least two pieces
		for _, p := range evenLayout(n, cap) {
			if 2*p < cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: splice(dst, content, cut, data) fills dst with
// content[:cut] + data + content[cut:].
func TestSpliceProperty(t *testing.T) {
	prop := func(content, data []byte, cutRaw uint16) bool {
		if len(content) == 0 {
			content = []byte{0}
		}
		cut := int64(cutRaw) % int64(len(content))
		want := append(append(append([]byte{}, content[:cut]...), data...), content[cut:]...)
		out := splice(make([]byte, len(content)+len(data)), content, cut, data)
		return bytes.Equal(out, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
