package window

import "slices"

// openWindow is the live state of one open window at one stage
// instance: plain per-key maps, so accumulating a tuple or merging a
// partial hashes only the key (never a composite key-and-window
// struct), and flushing or closing the window walks exactly its own
// entries. String-keyed tuples live under their key, integer-keyed ones
// under their routing hash; a per-instance aggregation is the single
// entry ("", 0). Only the pair of maps matching the plan's path
// (Combiner or general) is allocated.
type openWindow struct {
	start, end int64
	// Combiner fast path: one machine word per live key.
	strCounts map[string]int64
	intCounts map[uint64]int64
	// General path: one boxed accumulator per live key.
	strStates map[string]State
	intStates map[uint64]State
}

// str and num read one accumulator in State form, whichever path the
// window's plan is on.
func (w *openWindow) str(key string) State {
	if w.strCounts != nil {
		return w.strCounts[key]
	}
	return w.strStates[key]
}

func (w *openWindow) num(hash uint64) State {
	if w.intCounts != nil {
		return w.intCounts[hash]
	}
	return w.intStates[hash]
}

// live is the number of accumulators the window holds.
func (w *openWindow) live() int {
	return len(w.strCounts) + len(w.intCounts) + len(w.strStates) + len(w.intStates)
}

// windowIndex is the live state of one stage instance: its open windows
// in start order. Window ends grow with window starts (Size is fixed),
// so "which windows has the watermark completed" is a look at the
// oldest entry, and a stream that advances finds a tuple's window at
// the young end in a step or two. A tumbling stream holds one or two
// windows, a sliding one ⌈Size/Slide⌉ and change, the global window
// exactly one.
type windowIndex struct {
	comb bool // allocate counter maps (Combiner path), not state maps
	spec *Spec
	open []*openWindow // ascending start
	// free holds emptied windows for reuse: their maps keep their
	// capacity, so a steady stream stops growing maps after warm-up.
	free []*openWindow
}

// at returns the open window starting at start, opening it if needed.
func (x *windowIndex) at(start int64) *openWindow {
	i := len(x.open)
	for i > 0 && x.open[i-1].start > start {
		i--
	}
	if i > 0 && x.open[i-1].start == start {
		return x.open[i-1]
	}
	var w *openWindow
	if n := len(x.free); n > 0 {
		w, x.free = x.free[n-1], x.free[:n-1]
	} else if x.comb {
		w = &openWindow{strCounts: map[string]int64{}, intCounts: map[uint64]int64{}}
	} else {
		w = &openWindow{strStates: map[string]State{}, intStates: map[uint64]State{}}
	}
	w.start, w.end = start, x.spec.end(start)
	x.open = slices.Insert(x.open, i, w)
	return w
}

// oldest returns the open window with the earliest end (nil: none).
func (x *windowIndex) oldest() *openWindow {
	if len(x.open) == 0 {
		return nil
	}
	return x.open[0]
}

// dropOldest forgets the oldest window and everything it holds.
func (x *windowIndex) dropOldest() {
	x.recycle(x.open[0])
	x.open = slices.Delete(x.open, 0, 1)
}

// dropAll forgets every open window.
func (x *windowIndex) dropAll() {
	for _, w := range x.open {
		x.recycle(w)
	}
	x.open = x.open[:0]
}

func (x *windowIndex) recycle(w *openWindow) {
	clear(w.strCounts)
	clear(w.intCounts)
	clear(w.strStates)
	clear(w.intStates)
	x.free = append(x.free, w)
}

// live is the number of accumulators across all open windows.
func (x *windowIndex) live() int {
	n := 0
	for _, w := range x.open {
		n += w.live()
	}
	return n
}
