package xdm

import (
	"fmt"
	"strings"
)

// CompareOp is a comparison operator shared by the value comparisons
// (eq, ne, lt, le, gt, ge) and the general comparisons (=, !=, <, <=, >, >=).
type CompareOp uint8

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (o CompareOp) String() string { return opNames[o] }

// GeneralSymbol returns the general-comparison spelling of the operator.
func (o CompareOp) GeneralSymbol() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[o]
}

// Atomize converts a sequence of items to a sequence of atomic values
// (fn:data over each item). Values pass through without re-boxing, and an
// unannotated node boxes its one untypedAtomic value directly.
func Atomize(seq Sequence) (Sequence, error) {
	out := make(Sequence, 0, len(seq))
	var buf [1]Value
	for _, it := range seq {
		n, ok := it.(*Node)
		switch {
		case !ok:
			out = append(out, it)
		case !n.TypeAnn.Valid:
			out = append(out, NewUntyped(n.StringValue()))
		default:
			vals, err := n.appendTypedValue(buf[:0])
			if err != nil {
				return nil, err
			}
			out = appendBoxed(out, vals)
		}
	}
	return out, nil
}

// AppendAtoms appends the atomized items of seq (fn:data over each item)
// to dst without boxing them. Callers that only compare the values pass a
// stack buffer, so a singleton operand costs no allocation.
func AppendAtoms(dst []Value, seq Sequence) ([]Value, error) {
	for _, it := range seq {
		switch x := it.(type) {
		case Value:
			dst = append(dst, x)
		case *Node:
			var err error
			if dst, err = x.appendTypedValue(dst); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

// appendBoxed appends vals to seq as items.
func appendBoxed(seq Sequence, vals []Value) Sequence {
	for _, v := range vals {
		seq = append(seq, v)
	}
	return seq
}

// ValueCompare implements the XQuery value comparison of two atomic
// values. Untyped operands are treated as strings (the rule the paper's
// §3.6 issue 1 turns on: untypedAtomic is comparable to string, numbers
// are not). Returns a type error for incomparable types.
func ValueCompare(op CompareOp, a, b Value) (bool, error) {
	at, bt := a.T, b.T
	// untypedAtomic behaves as string in value comparisons.
	if at == UntypedAtomic {
		at = String
	}
	if bt == UntypedAtomic {
		bt = String
	}
	switch {
	case at == String && bt == String:
		return applyOrder(op, strings.Compare(a.S, b.S)), nil
	case at.IsNumeric() && bt.IsNumeric():
		return numericCompare(op, a, b), nil
	case at == Boolean && bt == Boolean:
		ai, bi := b2i(a.B), b2i(b.B)
		return applyOrder(op, ai-bi), nil
	case (at == Date && bt == Date) || (at == DateTime && bt == DateTime):
		switch {
		case a.M.Before(b.M):
			return applyOrder(op, -1), nil
		case a.M.After(b.M):
			return applyOrder(op, 1), nil
		default:
			return applyOrder(op, 0), nil
		}
	}
	return false, fmt.Errorf("cannot compare xs:%s with xs:%s", a.T, b.T)
}

// numericCompare compares two numeric values. When both operands are
// integers the comparison is exact 64-bit; otherwise both promote to
// double, which rounds large integers — the divergence §3.6 issue 2
// describes between Query 26 and Query 27.
func numericCompare(op CompareOp, a, b Value) bool {
	if a.T == Integer && b.T == Integer {
		switch {
		case a.I < b.I:
			return applyOrder(op, -1)
		case a.I > b.I:
			return applyOrder(op, 1)
		default:
			return applyOrder(op, 0)
		}
	}
	x, y := a.Number(), b.Number()
	switch {
	case x < y:
		return applyOrder(op, -1)
	case x > y:
		return applyOrder(op, 1)
	case x == y:
		return applyOrder(op, 0)
	default: // NaN involved: every comparison except ne is false
		return op == OpNe
	}
}

func applyOrder(op CompareOp, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// generalPair compares one pair under general-comparison conversion
// rules: an untyped operand converts to the other operand's type (to
// double if the other side is numeric, to string if the other side is a
// string; two untyped operands compare as strings).
func generalPair(op CompareOp, a, b Value) (bool, error) {
	switch {
	case a.T == UntypedAtomic && b.T == UntypedAtomic:
		return ValueCompare(op, NewString(a.S), NewString(b.S))
	case a.T == UntypedAtomic:
		conv, err := a.Cast(generalTarget(b.T))
		if err != nil {
			// A failed cast makes the pair a non-match rather than a
			// dynamic error. Strict XQuery raises FORG0001 here, but
			// the paper's system cannot: its tolerant indexes skip
			// non-castable nodes (§2.1), so Definition 1 would break on
			// corpora mixing "99.50" and "20 USD" prices if the scan
			// semantics errored where the index semantics skips.
			return false, nil
		}
		return ValueCompare(op, conv, b)
	case b.T == UntypedAtomic:
		conv, err := b.Cast(generalTarget(a.T))
		if err != nil {
			return false, nil
		}
		return ValueCompare(op, a, conv)
	default:
		return ValueCompare(op, a, b)
	}
}

// generalTarget maps the typed side's type to the cast target for the
// untyped side in a general comparison.
func generalTarget(t Type) Type {
	if t.IsNumeric() {
		return Double
	}
	return t
}

// GeneralCompare implements the XQuery general comparison: existential
// over the two atomized sequences. The §3.10 "between" trap — a lineitem
// with prices 250 and 50 satisfying [price > 100 and price < 200] — is a
// direct consequence of this semantics.
func GeneralCompare(op CompareOp, left, right Sequence) (bool, error) {
	var lbuf, rbuf [1]Value
	la, err := AppendAtoms(lbuf[:0], left)
	if err != nil {
		return false, err
	}
	ra, err := AppendAtoms(rbuf[:0], right)
	if err != nil {
		return false, err
	}
	for _, li := range la {
		for _, ri := range ra {
			ok, err := generalPair(op, li, ri)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

// SQLCompare implements the SQL comparison semantics the SQL/XML layer
// uses: strings compare with trailing blanks ignored (SQL PAD SPACE
// collation), numerics compare numerically. This is deliberately a
// different law from ValueCompare — crossing the two is the §3.3/§3.6
// hazard ("trailing blank characters are ignored in SQL, they are
// significant in XQuery").
func SQLCompare(op CompareOp, a, b Value) (bool, error) {
	if a.T.IsNumeric() || b.T.IsNumeric() {
		ac, err := a.Cast(Double)
		if err != nil {
			return false, err
		}
		bc, err := b.Cast(Double)
		if err != nil {
			return false, err
		}
		return numericCompare(op, ac, bc), nil
	}
	if (a.T == Date || a.T == DateTime) && (b.T == Date || b.T == DateTime) {
		return ValueCompare(op, a, b)
	}
	as := strings.TrimRight(a.Lexical(), " ")
	bs := strings.TrimRight(b.Lexical(), " ")
	return applyOrder(op, strings.Compare(as, bs)), nil
}
