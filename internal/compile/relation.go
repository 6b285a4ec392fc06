package compile

import (
	"sort"

	"repro/internal/datalog"
	"repro/internal/resource"
)

// rowOverhead approximates the per-tuple bookkeeping (dedup table slot,
// row storage) and indexEntryOverhead the per-index-posting cost, both
// charged against the memory budget.
const (
	rowOverhead        = 32
	indexEntryOverhead = 24
)

// Relation is one predicate's facts during a run: the rows of interned IDs
// in the relation of the model store the run returns (datalog.Relation),
// and the run's own hash indexes, built lazily per bound-argument bitmask.
// Indexes extend incrementally as the relation grows (semi-naive rounds
// append between reads), so a pattern pays only for the rows inserted since
// it was last consulted; they are the run's, and are dropped with it.
type Relation struct {
	arity int
	rows  *datalog.Relation
	idx   map[uint32]*hashIndex
}

// hashIndex maps the packed IDs at one set of bound positions to the rows
// holding them. upTo is how many rows have been folded in.
type hashIndex struct {
	rows map[string][]int32
	upTo int
}

// Len returns the number of distinct tuples.
func (r *Relation) Len() int {
	if r == nil {
		return 0
	}
	return r.rows.Len()
}

// Insert adds one tuple, reporting whether it was new. Memory for the row
// is charged to gov; the fact count itself is the caller's concern (the
// engine charges gov.Insert for derived tuples, mirroring the interpreter's
// accounting).
func (r *Relation) Insert(row []ID, gov *resource.Governor) (bool, error) {
	if r.rows.Has(row) {
		return false, nil
	}
	// A row is charged as a packed key and its columns: 4 bytes an ID, twice.
	if err := gov.Charge(int64(8*r.arity + rowOverhead)); err != nil {
		return false, err
	}
	r.rows.Add(row)
	return true, nil
}

// Contains reports whether the tuple is stored.
func (r *Relation) Contains(row []ID) bool { return r != nil && r.rows.Has(row) }

// at returns the ID at (row, col).
func (r *Relation) at(row int32, col int) ID { return r.rows.At(row, col) }

// ensureIndex builds or extends the hash index for one bound-position
// bitmask so it covers every stored row. The engine calls it between
// rounds; after that, Probe calls only read.
func (r *Relation) ensureIndex(mask uint32, gov *resource.Governor) error {
	if r == nil || mask == 0 {
		return nil
	}
	h := r.idx[mask]
	if h == nil {
		h = &hashIndex{rows: make(map[string][]int32)}
		if r.idx == nil {
			r.idx = make(map[uint32]*hashIndex)
		}
		r.idx[mask] = h
	}
	n := r.Len()
	if h.upTo >= n {
		return nil
	}
	var scratch []byte
	for row := int32(h.upTo); row < int32(n); row++ {
		scratch = scratch[:0]
		for j := 0; j < r.arity; j++ {
			if mask&(1<<uint(j)) != 0 {
				id := r.at(row, j)
				scratch = append(scratch, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
		}
		key := string(scratch)
		if err := gov.Charge(int64(len(key) + indexEntryOverhead)); err != nil {
			return err
		}
		h.rows[key] = append(h.rows[key], row)
	}
	h.upTo = n
	return nil
}

// Probe returns the rows whose bound positions (per mask, in position
// order) pack to key. The index must have been ensured first; a missing
// index means no rows were ever inserted for it, so nil is correct.
func (r *Relation) Probe(mask uint32, key []byte) []int32 {
	if r == nil {
		return nil
	}
	h := r.idx[mask]
	if h == nil {
		return nil
	}
	return h.rows[string(key)] // direct map index: no allocation
}

// ProbeRange restricts Probe to rows in [from, to) — the semi-naive delta
// view over the relation's append-only rows. Postings are appended in
// ascending row order, so the view is a contiguous sub-slice.
func (r *Relation) ProbeRange(mask uint32, key []byte, from, to int32) []int32 {
	rows := r.Probe(mask, key)
	lo := sort.Search(len(rows), func(i int) bool { return rows[i] >= from })
	hi := lo + sort.Search(len(rows)-lo, func(i int) bool { return rows[lo+i] >= to })
	return rows[lo:hi]
}
