package xquery

import (
	"slices"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/xdm"
)

// Seeds carries index-derived hit sets into an evaluation, keyed by the
// exact AST node of the compared operand path they were computed for
// (core.Predicate.SeedPath). When a path expression with a seed is
// evaluated, navigation is pruned to the seed: intermediate steps keep
// only nodes on a path to some hit, and the final step keeps only the
// hits themselves. The pruning is sound for the paths the analyzer
// marks seedable — predicate-free downward navigation feeding a general
// comparison — because every pruned node could only have contributed
// false to that existential comparison.
type Seeds map[*PathExpr]*PathSeed

// PathSeed is one seeded path's hit sets, grouped per tree. Ordinal
// slices are sorted ascending; trees absent from Hits contain no hits,
// so every node of such a tree prunes.
type PathSeed struct {
	// Hits maps a tree id to the preorder ordinals of the nodes the
	// index matched — the exact population the final step may produce.
	Hits map[uint64][]uint32
	// Live maps a tree id to the hits plus all their ancestors: the
	// nodes intermediate steps may pass through.
	Live map[uint64][]uint32
}

// keep reports whether node n survives the seed filter: membership in
// Hits when final, in Live otherwise.
func (s *PathSeed) keep(n *xdm.Node, final bool) bool {
	sets := s.Live
	if final {
		sets = s.Hits
	}
	_, ok := slices.BinarySearch(sets[n.TreeID], n.Ordinal)
	return ok
}

// filter prunes a step's output against the seed. Non-node items pass
// untouched (seeded paths produce nodes, but the guard costs nothing).
func (s *PathSeed) filter(seq xdm.Sequence, final bool) xdm.Sequence {
	kept := seq[:0:len(seq)]
	for _, it := range seq {
		n, ok := it.(*xdm.Node)
		if ok && !s.keep(n, final) {
			continue
		}
		kept = append(kept, it)
	}
	return kept
}

// EvalGuardedSeeded is EvalGuarded with seed data pruning the seeded
// paths' navigation.
func EvalGuardedSeeded(m *Module, vars StaticVars, coll CollectionResolver, g *guard.Guard, seeds Seeds) (xdm.Sequence, error) {
	ctx := evalCtx{coll: coll, g: g, seeds: seeds}
	for name, val := range vars {
		ctx = ctx.bind(name, val)
	}
	return eval(m.Body, ctx)
}
