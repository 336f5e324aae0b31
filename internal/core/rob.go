package core

// robEntry is one reorder-buffer slot.
type robEntry struct {
	instr *SimInstr
	done  bool
}

// ROB is the reorder (retire) buffer: a bounded FIFO of in-flight
// instructions committed in program order.
type ROB struct {
	entries []robEntry
	head    int // oldest
	tail    int // next free
	count   int

	// squashScratch is the reusable SquashAfter result buffer; its
	// contents are only valid until the next call.
	squashScratch []*SimInstr
}

// NewROB builds a reorder buffer with the configured capacity.
func NewROB(size int) *ROB {
	return &ROB{entries: make([]robEntry, size)}
}

// Full reports whether no slot is free.
func (r *ROB) Full() bool { return r.count == len(r.entries) }

// Empty reports whether no instruction is in flight.
func (r *ROB) Empty() bool { return r.count == 0 }

// Len returns the number of occupied slots.
func (r *ROB) Len() int { return r.count }

// Cap returns the buffer capacity.
func (r *ROB) Cap() int { return len(r.entries) }

// position returns the age rank of slot i: 0 for the head.
func (r *ROB) position(i int) int { return (i - r.head + len(r.entries)) % len(r.entries) }

// Push allocates a slot for the instruction, which must not be full.
func (r *ROB) Push(si *SimInstr) {
	if r.Full() {
		panic("core: ROB overflow")
	}
	si.robIndex = r.tail
	r.entries[r.tail] = robEntry{instr: si}
	if r.tail++; r.tail == len(r.entries) {
		r.tail = 0
	}
	r.count++
}

// HeadDone reports whether the oldest instruction has finished executing.
func (r *ROB) HeadDone() bool {
	return !r.Empty() && r.entries[r.head].done
}

// Pop retires the oldest instruction.
func (r *ROB) Pop() *SimInstr {
	if r.Empty() {
		panic("core: ROB underflow")
	}
	si := r.entries[r.head].instr
	si.robIndex = 0 // as an instruction never in the ROB
	r.entries[r.head] = robEntry{}
	if r.head++; r.head == len(r.entries) {
		r.head = 0
	}
	r.count--
	return si
}

// MarkDone flags the instruction's slot as completed.
func (r *ROB) MarkDone(si *SimInstr) {
	if r.entries[si.robIndex].instr == si {
		r.entries[si.robIndex].done = true
	}
}

// SquashAfter removes every instruction younger than pivot (exclusive),
// returning them youngest-first (the order rename-map restoration needs).
// The returned slice is a reusable scratch buffer, valid until the next
// call.
func (r *ROB) SquashAfter(pivot *SimInstr) []*SimInstr {
	squashed := r.squashScratch[:0]
	for r.count > 0 {
		lastIdx := (r.tail - 1 + len(r.entries)) % len(r.entries)
		last := r.entries[lastIdx].instr
		if last == pivot {
			break
		}
		r.entries[lastIdx] = robEntry{}
		r.tail = lastIdx
		r.count--
		squashed = append(squashed, last)
	}
	r.squashScratch = squashed
	return squashed
}

// Walk visits the in-flight instructions oldest-first.
func (r *ROB) Walk(f func(si *SimInstr, done bool)) {
	idx := r.head
	for i := 0; i < r.count; i++ {
		f(r.entries[idx].instr, r.entries[idx].done)
		idx = (idx + 1) % len(r.entries)
	}
}
