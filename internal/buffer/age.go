package buffer

// ageList keeps the pool's frames in ascending use order (use is lastUse
// for a valid frame, 0 for an invalid one), oldest at the front. It is an
// intrusive doubly linked list over frame numbers: next[i]/prev[i] link
// frame i, and index len(frames) is the sentinel that closes the ring, so
// linking and unlinking need no branches and nothing is ever allocated.
//
// The pool's tick never decreases and a touched or installed frame takes
// the current tick, so moving it to the back keeps the order; an
// invalidated frame drops to use 0, so it moves to the front. The order
// among frames of equal use is unspecified (the victim search does not
// depend on it).
type ageList struct {
	next, prev []int32
}

func newAgeList(frames int) ageList {
	a := ageList{next: make([]int32, frames+1), prev: make([]int32, frames+1)}
	for i := 0; i <= frames; i++ {
		a.next[i] = int32((i + 1) % (frames + 1))
		a.prev[i] = int32((i + frames) % (frames + 1))
	}
	return a
}

// end is the sentinel: front() of an exhausted walk, and next[end] is the
// oldest frame.
func (a *ageList) end() int32 { return int32(len(a.next) - 1) }

func (a *ageList) front() int32 { return a.next[a.end()] }

// insertBefore unlinks frame i and relinks it ahead of at.
func (a *ageList) insertBefore(i, at int32) {
	a.next[a.prev[i]], a.prev[a.next[i]] = a.next[i], a.prev[i]
	before := a.prev[at]
	a.next[before], a.prev[i] = i, before
	a.next[i], a.prev[at] = at, i
}

// moveBack makes frame i the most recently used.
func (a *ageList) moveBack(i int) { a.insertBefore(int32(i), a.end()) }

// moveFront makes frame i the oldest.
func (a *ageList) moveFront(i int) {
	if at := a.front(); at != int32(i) {
		a.insertBefore(int32(i), at)
	}
}
