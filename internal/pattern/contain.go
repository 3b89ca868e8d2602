package pattern

import (
	"fmt"
	"slices"
	"strings"
)

// FromSteps builds a Pattern programmatically. The eligibility analyzer
// uses it to turn a query's navigation into a pattern for containment
// checking against index definitions.
func FromSteps(steps []Step) (*Pattern, error) {
	alts, err := normalize(steps)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		// Render descendant-or-self::node() followed by a step as "//".
		if s.Axis == DescendantOrSelf && s.Test == AnyKindTest && s.PITarget == "" && i+1 < len(steps) {
			b.WriteString("//")
			i++
			s = steps[i]
		} else {
			b.WriteByte('/')
		}
		switch {
		case s.Axis == Attribute:
			b.WriteByte('@')
		case s.Axis != Child:
			b.WriteString(s.Axis.String())
			b.WriteString("::")
		}
		switch s.Test {
		case AnyKindTest:
			b.WriteString("node()")
		case TextTest:
			b.WriteString("text()")
		case CommentTest:
			b.WriteString("comment()")
		case PITest:
			b.WriteString("processing-instruction(" + s.PITarget + ")")
		default:
			// {uri}name is Clark notation; {}* is the no-namespace
			// wildcard, which a bare * (any namespace) would widen.
			if s.Space == "*" && s.Local != "*" {
				b.WriteString("*:")
			} else if s.Space != "*" && (s.Space != "" || s.Local == "*") {
				b.WriteString("{" + s.Space + "}")
			}
			b.WriteString(s.Local)
		}
	}
	return &Pattern{Source: b.String(), Steps: steps, alternatives: alts}, nil
}

// normalize converts a step sequence into an alternation of linear
// consuming-step sequences:
//
//   - child/attribute steps consume one label;
//   - descendant steps consume one label after an arbitrary skip;
//   - descendant-or-self::node() marks the next consuming step skippable
//     (trailing dos::node() adds a consuming node() step with skip, since
//     the grammar requires a pattern to name the indexed node);
//   - self steps merge into the preceding consuming step by test
//     conjunction (an unsatisfiable conjunction yields a dead step);
//   - a descendant-or-self step with a non-trivial test expands into the
//     self-alternative and the descendant-alternative.
func normalize(steps []Step) ([][]nstep, error) {
	alts := [][]nstep{nil}
	pendingSkip := false
	appendAll := func(s nstep) {
		for i := range alts {
			alts[i] = append(alts[i], s)
		}
	}
	for idx, st := range steps {
		switch st.Axis {
		case Child, Attribute:
			appendAll(nstep{
				skipBefore: pendingSkip,
				attr:       st.Axis == Attribute,
				test:       st.Test, space: st.Space, local: st.Local, piTarget: st.PITarget,
			})
			pendingSkip = false
		case Descendant:
			appendAll(nstep{
				skipBefore: true,
				test:       st.Test, space: st.Space, local: st.Local, piTarget: st.PITarget,
			})
			pendingSkip = false
		case DescendantOrSelf:
			if st.Test == AnyKindTest && st.PITarget == "" {
				if idx == len(steps)-1 {
					// Trailing //node(): consume a node at any depth.
					appendAll(nstep{skipBefore: true, test: AnyKindTest})
				} else {
					pendingSkip = true
				}
				continue
			}
			// dos::t = self::t | descendant::t — duplicate alternatives.
			var expanded [][]nstep
			for _, alt := range alts {
				// descendant branch
				desc := append(append([]nstep(nil), alt...), nstep{
					skipBefore: true,
					test:       st.Test, space: st.Space, local: st.Local, piTarget: st.PITarget,
				})
				expanded = append(expanded, desc)
				// self branch: conjunction with the last consumed step
				selfAlt := append([]nstep(nil), alt...)
				if len(selfAlt) == 0 {
					continue // self of the document root: name tests never match
				}
				merged, ok := conjoin(selfAlt[len(selfAlt)-1], st)
				if !ok {
					continue
				}
				selfAlt[len(selfAlt)-1] = merged
				expanded = append(expanded, selfAlt)
			}
			alts = expanded
			pendingSkip = false
		case Self:
			if pendingSkip {
				return nil, fmt.Errorf("self step directly after // is not supported")
			}
			for i := range alts {
				if len(alts[i]) == 0 {
					// self:: at pattern start constrains the document
					// root; only node() is satisfiable there.
					if st.Test != AnyKindTest {
						alts[i] = append(alts[i], nstep{dead: true})
					}
					continue
				}
				merged, ok := conjoin(alts[i][len(alts[i])-1], st)
				if !ok {
					alts[i][len(alts[i])-1] = nstep{dead: true}
					continue
				}
				alts[i][len(alts[i])-1] = merged
			}
		}
	}
	if pendingSkip {
		return nil, fmt.Errorf("pattern ends with a bare //")
	}
	// Drop alternatives containing dead steps.
	var live [][]nstep
	for _, alt := range alts {
		ok := true
		for _, s := range alt {
			if s.dead {
				ok = false
				break
			}
		}
		if ok && len(alt) > 0 {
			live = append(live, alt)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("pattern matches no nodes")
	}
	return live, nil
}

// conjoin intersects a consuming step's test with a self-step's test.
// The second result is false when the conjunction is unsatisfiable.
func conjoin(s nstep, self Step) (nstep, bool) {
	if self.Test == AnyKindTest {
		return s, true
	}
	if s.test == AnyKindTest {
		if s.attr {
			// attribute principal kind vs text/comment/pi/name tests:
			// only a name test can match an attribute.
			if self.Test != NameTest {
				return s, false
			}
			s.test = NameTest
			s.space, s.local = self.Space, self.Local
			return s, true
		}
		s.test = self.Test
		s.space, s.local, s.piTarget = self.Space, self.Local, self.PITarget
		return s, true
	}
	if s.test != self.Test {
		return s, false
	}
	switch s.test {
	case TextTest, CommentTest:
		return s, true
	case PITest:
		switch {
		case self.PITarget == "":
			return s, true
		case s.piTarget == "" || s.piTarget == self.PITarget:
			s.piTarget = self.PITarget
			return s, true
		}
		return s, false
	case NameTest:
		local, ok := intersectName(s.local, self.Local)
		if !ok {
			return s, false
		}
		space, ok := intersectName(s.space, self.Space)
		if !ok {
			return s, false
		}
		s.local, s.space = local, space
		return s, true
	}
	return s, false
}

func intersectName(a, b string) (string, bool) {
	switch {
	case a == "*":
		return b, true
	case b == "*" || a == b:
		return a, true
	}
	return "", false
}

// Contains reports whether index pattern i is no more restrictive than
// query pattern q: every label path matched by q is also matched by i.
// This is the structural condition of Definition 1. The check is an
// inclusion test between the two pattern automata using adversarial
// symbolic labels: skip segments instantiate to globally fresh labels,
// and each query test instantiates to a label satisfying exactly the
// index tests it logically implies.
func Contains(i, q *Pattern) bool {
	a := newIAutomaton(i.alternatives)
	for _, qalt := range q.alternatives {
		if !a.altContained(qalt) {
			return false
		}
	}
	return true
}

// The index automaton's states are numbered positions: position pos of
// alternative k is bit base[k]+pos of a state set, where base[k] sums
// len(alt)+1 over the alternatives before k. The last position of each
// alternative is its accepting state. A state set is a slice of words,
// and sets are told apart by word equality.
type iautomaton struct {
	alts  [][]nstep
	words int // words per state set
	// skip holds the bits whose step may be preceded by a skip (the
	// state loops on any label); fresh the bits whose step a fresh
	// element label satisfies; accept the accepting bits; implied the
	// bits whose step the current query step implies.
	skip, fresh, accept, implied []uint64
}

func newIAutomaton(alts [][]nstep) *iautomaton {
	n := 0
	for _, alt := range alts {
		n += len(alt) + 1
	}
	w := (n + 63) / 64
	masks := make([]uint64, 4*w)
	a := &iautomaton{alts: alts, words: w,
		skip: masks[:w], fresh: masks[w : 2*w], accept: masks[2*w : 3*w], implied: masks[3*w:]}
	fresh := nstep{test: NameTest, space: "\x00fresh-ns", local: "\x00fresh"}
	a.eachStep(func(bit int, is nstep) {
		if is.skipBefore {
			setBit(a.skip, bit)
		}
		if implies(fresh, is) {
			setBit(a.fresh, bit)
		}
	})
	bit := 0
	for _, alt := range alts {
		bit += len(alt)
		setBit(a.accept, bit)
		bit++
	}
	return a
}

// eachStep calls f with the bit of every non-accepting position and the
// step that leaves it.
func (a *iautomaton) eachStep(f func(bit int, is nstep)) {
	bit := 0
	for _, alt := range a.alts {
		for _, is := range alt {
			f(bit, is)
			bit++
		}
		bit++ // accepting position
	}
}

func setBit(s []uint64, bit int) { s[bit/64] |= 1 << (bit % 64) }

// consume writes to dst the states reachable from src over one
// adversarial label chosen to satisfy as few index tests as possible:
// the step leaving a state is satisfied iff its bit is set in sat. A
// state whose step allows a preceding skip stays (the label joins the
// skip segment); accepted states fall off the pattern.
func (a *iautomaton) consume(dst, src, sat []uint64) {
	var carry uint64
	for i := range dst {
		live := src[i] &^ a.accept[i]
		adv := live & sat[i]
		dst[i] = live&a.skip[i] | adv<<1 | carry
		carry = adv >> 63
	}
}

// grow appends one empty set of w words to a flat list of sets and
// returns the list and the new set.
func grow(list []uint64, w int) ([]uint64, []uint64) {
	list = append(list, make([]uint64, w)...)
	return list, list[len(list)-w:]
}

// hasSet reports whether the flat list of sets holds set s.
func hasSet(list, s []uint64) bool {
	for i := 0; i < len(list); i += len(s) {
		if slices.Equal(list[i:i+len(s)], s) {
			return true
		}
	}
	return false
}

func isZero(s []uint64) bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// altContained checks that every path matched by the query alternative is
// matched by at least one index alternative.
func (a *iautomaton) altContained(qalt []nstep) bool {
	// The adversary walks the query alternative, choosing skip lengths
	// and concrete labels; we track every set of index states the
	// adversary can force. Start: position 0 in every index alternative.
	// sets, next and chain are flat lists of state sets, w words each.
	w := a.words
	var setsBuf, nextBuf, chainBuf [16]uint64
	sets, start := grow(setsBuf[:0], w)
	next, chain := nextBuf[:0], chainBuf[:0]
	bit := 0
	for _, alt := range a.alts {
		setBit(start, bit)
		bit += len(alt) + 1
	}
	// push consumes set s over the query step into a new set on next,
	// dropping it again when next already holds it. An empty set means
	// the adversary has escaped every index alternative.
	push := func(s []uint64) bool {
		var out []uint64
		next, out = grow(next, w)
		a.consume(out, s, a.implied)
		if isZero(out) {
			return false
		}
		if hasSet(next[:len(next)-w], out) {
			next = next[:len(next)-w]
		}
		return true
	}
	for _, qs := range qalt {
		clear(a.implied)
		a.eachStep(func(bit int, is nstep) {
			if implies(qs, is) {
				setBit(a.implied, bit)
			}
		})
		next = next[:0]
		for i := 0; i < len(sets); i += w {
			s := sets[i : i+w]
			if !qs.skipBefore {
				if !push(s) {
					return false
				}
				continue
			}
			// Every state set reachable by consuming k >= 0 fresh
			// labels, for every k the adversary may pick: the chain
			// from s under fresh labels, up to its first repeat.
			chain = append(chain[:0], s...)
			for c := 0; ; c += w {
				var nxt []uint64
				chain, nxt = grow(chain, w)
				a.consume(nxt, chain[c:c+w], a.fresh)
				if hasSet(chain[:len(chain)-w], nxt) {
					chain = chain[:len(chain)-w]
					break
				}
			}
			for c := 0; c < len(chain); c += w {
				if !push(chain[c : c+w]) {
					return false
				}
			}
		}
		sets, next = next, sets
	}
	// Every adversarial run must end in an accepting index state.
	for i := 0; i < len(sets); i += w {
		accepted := false
		for j, word := range sets[i : i+w] {
			if word&a.accept[j] != 0 {
				accepted = true
			}
		}
		if !accepted {
			return false
		}
	}
	return true
}

// implies reports whether every label satisfying query step q also
// satisfies index step i.
func implies(q, i nstep) bool {
	qAttr, iAttr := q.attr, i.attr
	switch i.test {
	case AnyKindTest:
		if iAttr {
			// node() on the attribute axis matches only attributes.
			return qAttr
		}
		// node() on a child-ish axis matches everything except
		// attributes (§3.9).
		return !qAttr
	case TextTest:
		return q.test == TextTest && !qAttr
	case CommentTest:
		return q.test == CommentTest && !qAttr
	case PITest:
		if q.test != PITest || qAttr {
			return false
		}
		return i.piTarget == "" || i.piTarget == q.piTarget
	case NameTest:
		if q.test != NameTest || qAttr != iAttr {
			return false
		}
		if i.local != "*" && (q.local == "*" || q.local != i.local) {
			return false
		}
		if i.space != "*" && (q.space == "*" || q.space != i.space) {
			return false
		}
		return true
	}
	return false
}
