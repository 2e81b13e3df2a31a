package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"dbs3/internal/relation"
)

// digest is an order-independent summary of a result multiset: the row
// count and the wrapping sum of a hash of every row. Parallel execution
// delivers rows in any order, so the sum (not a running hash) is what two
// correct answers share.
type digest struct {
	Rows int64
	Sum  uint64
}

// add folds one row. Values are normalized first, so a row read from the
// in-process cursor, from the columnar wire or from NDJSON hashes the same.
func (d *digest) add(row []any) error {
	h, err := rowHash(row)
	if err != nil {
		return err
	}
	d.Rows++
	d.Sum += h
	return nil
}

// addInts folds one oracle row of integers.
func (d *digest) addInts(vs ...int64) {
	row := make([]any, len(vs))
	for i, v := range vs {
		row[i] = v
	}
	_ = d.add(row) // integer rows always hash
}

// addTuple folds one oracle row: a base tuple projected onto cols.
func (d *digest) addTuple(t relation.Tuple, cols ...int) {
	_ = d.add(tupleRow(project(t, cols))) // tuple values are ints or strings, which always hash
}

func project(t relation.Tuple, cols []int) relation.Tuple {
	out := make(relation.Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

func (d digest) String() string { return fmt.Sprintf("%d rows, sum %016x", d.Rows, d.Sum) }

// check compares an observed answer with the expected one.
func check(what string, got, want digest) error {
	if got != want {
		return fmt.Errorf("oracle mismatch on %s: got %v, want %v", what, got, want)
	}
	return nil
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// rowHash hashes a row's values with their kinds (FNV-1a, allocation-free:
// it runs on every result row inside the measured latency).
func rowHash(row []any) (uint64, error) {
	h := uint64(fnvOffset)
	word := func(tag byte, v uint64) {
		h = (h ^ uint64(tag)) * fnvPrime
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * fnvPrime
			v >>= 8
		}
	}
	for _, v := range row {
		switch x := v.(type) {
		case int64:
			word('i', uint64(x))
		case int:
			word('i', uint64(int64(x)))
		case json.Number:
			n, err := strconv.ParseInt(string(x), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("oracle: non-integer number %q", x)
			}
			word('i', uint64(n))
		case string:
			word('s', uint64(len(x)))
			for i := 0; i < len(x); i++ {
				h = (h ^ uint64(x[i])) * fnvPrime
			}
		default:
			return 0, fmt.Errorf("oracle: unexpected value %T in row", v)
		}
	}
	return h, nil
}
