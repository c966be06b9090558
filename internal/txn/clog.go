package txn

import (
	"cmp"
	"math/bits"
	"slices"
	"sync/atomic"
)

// The commit log keeps two bits per XID, as PostgreSQL's pg_xact does, in
// 8 KiB pages of clogPageXIDs XIDs each. A page is allocated the first time
// an XID on it is given a status, so a node's disjoint XID ranges (its own
// from 2, a standby's local range from AdvanceXIDBase, a primary's XIDs
// replayed on a standby) cost one page each, not one slot per possible XID.
const (
	clogPageXIDs  = 32768
	clogPageBytes = clogPageXIDs / 4
	clogXIDsWord  = 16 // 2-bit entries per uint32
)

// The 2-bit entries. Zero is an XID nobody gave a status: it reads as
// Aborted, the fate of a writer that crashed before its commit record.
const (
	clogUnknown uint32 = iota
	clogInProgress
	clogCommitted
	clogAborted
)

type clogPage struct {
	no    uint64 // first XID / clogPageXIDs
	words [clogPageBytes / 4]atomic.Uint32
}

// clog is the paged commit log. Readers take no lock: the page directory is
// an immutable sorted slice replaced whole when a page is added, and a page,
// once published, never moves. Writers (set) are serialized by Manager.mu.
type clog struct {
	pages atomic.Pointer[[]*clogPage]
}

func (c *clog) page(no uint64) *clogPage {
	ps := c.pages.Load()
	if ps == nil {
		return nil
	}
	i, ok := slices.BinarySearchFunc(*ps, no, func(p *clogPage, no uint64) int { return cmp.Compare(p.no, no) })
	if !ok {
		return nil
	}
	return (*ps)[i]
}

// code returns xid's 2-bit entry.
func (c *clog) code(xid uint64) uint32 {
	p := c.page(xid / clogPageXIDs)
	if p == nil {
		return clogUnknown
	}
	i := xid % clogPageXIDs
	return p.words[i/clogXIDsWord].Load() >> (2 * (i % clogXIDsWord)) & 3
}

// status reads xid's entry as a Status.
func (c *clog) status(xid uint64) Status {
	switch c.code(xid) {
	case clogInProgress:
		return InProgress
	case clogCommitted:
		return Committed
	}
	return Aborted
}

// set records xid's status, allocating its page on first use. Callers hold
// Manager.mu, so a word's read-modify-write races no other writer; the store
// is atomic for the readers.
func (c *clog) set(xid uint64, st Status) {
	code := clogAborted
	switch st {
	case InProgress:
		code = clogInProgress
	case Committed:
		code = clogCommitted
	}
	no := xid / clogPageXIDs
	p := c.page(no)
	if p == nil {
		p = &clogPage{no: no}
		var ps []*clogPage
		if old := c.pages.Load(); old != nil {
			ps = *old
		}
		i, _ := slices.BinarySearchFunc(ps, no, func(p *clogPage, no uint64) int { return cmp.Compare(p.no, no) })
		grown := slices.Insert(slices.Clone(ps), i, p)
		c.pages.Store(&grown)
	}
	i := xid % clogPageXIDs
	w := &p.words[i/clogXIDsWord]
	shift := 2 * (i % clogXIDsWord)
	w.Store(w.Load()&^(3<<shift) | code<<shift)
}

// bytes is the memory the log's pages take.
func (c *clog) bytes() int {
	if ps := c.pages.Load(); ps != nil {
		return len(*ps) * clogPageBytes
	}
	return 0
}

// eachInProgress calls fn with every XID whose entry is in progress.
func (c *clog) eachInProgress(fn func(xid uint64)) {
	ps := c.pages.Load()
	if ps == nil {
		return
	}
	for _, p := range *ps {
		for wi := range p.words {
			w := p.words[wi].Load()
			// an entry is in progress when its low bit is set and its high bit clear
			lo := w & 0x55555555
			for busy := lo &^ (w >> 1); busy != 0; busy &= busy - 1 {
				fn(p.no*clogPageXIDs + uint64(wi)*clogXIDsWord + uint64(bits.TrailingZeros32(busy))/2)
			}
		}
	}
}
