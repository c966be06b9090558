package engine

import (
	"container/heap"
	"sort"

	"citusgo/internal/expr"
	"citusgo/internal/obs"
	"citusgo/internal/types"
)

// metVecTopNPruned counts input rows a bounded TopN heap discarded instead
// of materializing, sorting, and shipping them. On a Citus worker this is
// exactly the rows that never travel to the coordinator when a grouped
// ORDER BY ... LIMIT is pushed down; ablation A5's TopN variant asserts a
// nonzero split on it.
var metVecTopNPruned = obs.Default().Counter("vec_topn_pruned_rows_total",
	"rows discarded by bounded TopN heaps instead of being sorted and shipped").With()

// topNNode fuses Sort→Limit: when a plan has ORDER BY plus a LIMIT it
// keeps only a bounded heap of the k = limit+offset best rows, instead of
// materializing and sorting every input row. The heap's ordering extends
// the sort keys with arrival sequence, which is a total order — and the
// ascending enumeration of that total order is precisely what
// sortNode's sort.SliceStable produces, so the emitted rows are
// row-identical to Sort→Limit in every case (ties included).
//
// A NULL or negative evaluated LIMIT means "unlimited"; the node then
// degrades to the full materialize-and-sort, same as sortNode→limitNode.
type topNNode struct {
	child         node
	keys          []sortKey
	trim          int // emit only the first trim columns (0 = all)
	limit, offset expr.Evaluator
}

func (n *topNNode) columns() []string {
	cols := n.child.columns()
	if n.trim > 0 && n.trim < len(cols) {
		return cols[:n.trim]
	}
	return cols
}

func (n *topNNode) explain(indent string) []string {
	return append([]string{indent + "TopN"}, n.child.explain(indent+"  ")...)
}

// topnItem tags a row with its arrival sequence, the tie-breaker that
// makes the heap order total (and equal to stable-sort output order).
type topnItem struct {
	row types.Row
	seq int64
}

// topnHeap is a max-heap under the node's total order: the root is the
// worst retained row, the one a better arrival evicts.
type topnHeap struct {
	n     *topNNode
	items []topnItem
}

func (h *topnHeap) Len() int { return len(h.items) }
func (h *topnHeap) Less(i, j int) bool {
	return h.n.rowLess(&h.items[j], &h.items[i]) // inverted: max-heap
}
func (h *topnHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topnHeap) Push(x interface{}) { h.items = append(h.items, x.(topnItem)) }
func (h *topnHeap) Pop() interface{} {
	old := h.items
	it := old[len(old)-1]
	h.items = old[:len(old)-1]
	return it
}

// rowLess is the total order: sort keys, then arrival sequence.
func (n *topNNode) rowLess(a, b *topnItem) bool {
	for _, k := range n.keys {
		c := types.Compare(a.row[k.col], b.row[k.col])
		if c == 0 {
			continue
		}
		if k.desc {
			return c > 0
		}
		return c < 0
	}
	return a.seq < b.seq
}

// evalLimitOffset evaluates LIMIT and OFFSET for limitNode, topNNode and
// the TopN bound pushed into vecAggNode: an absent or NULL LIMIT is -1
// (unlimited); an absent, NULL or negative OFFSET is 0. Both expressions
// are row-free, so c's current row is never read.
func evalLimitOffset(c *expr.Ctx, limitEv, offsetEv expr.Evaluator) (limit, offset int64, err error) {
	bound := func(ev expr.Evaluator, def int64) (int64, error) {
		if ev == nil {
			return def, nil
		}
		v, err := ev(c)
		if err != nil || v == nil {
			return def, err
		}
		n, err := types.CoerceTo(v, types.Int)
		if err != nil {
			return 0, err
		}
		return n.(int64), nil
	}
	if limit, err = bound(limitEv, -1); err != nil {
		return 0, 0, err
	}
	if offset, err = bound(offsetEv, 0); err != nil {
		return 0, 0, err
	}
	if offset < 0 {
		offset = 0
	}
	return limit, offset, nil
}

func (n *topNNode) run(ec *execCtx, emit func(types.Row) error) error {
	limit, offset, err := evalLimitOffset(ec.eval, n.limit, n.offset)
	if err != nil {
		return err
	}

	var items []topnItem
	var seq, pruned int64
	if limit < 0 {
		// unlimited: full materialize-and-sort, nothing to prune
		if err := n.child.run(ec, func(row types.Row) error {
			items = append(items, topnItem{row: row.Clone(), seq: seq})
			seq++
			return nil
		}); err != nil {
			return err
		}
	} else {
		k := limit + offset
		h := &topnHeap{n: n}
		if err := n.child.run(ec, func(row types.Row) error {
			// the child may reuse row, so a row is cloned — but only once it
			// is known to stay
			it := topnItem{row: row, seq: seq}
			seq++
			if int64(len(h.items)) < k {
				it.row = row.Clone()
				heap.Push(h, it)
				return nil
			}
			pruned++
			if k > 0 && n.rowLess(&it, &h.items[0]) {
				it.row = row.Clone()
				h.items[0] = it
				heap.Fix(h, 0)
			}
			return nil
		}); err != nil {
			return err
		}
		items = h.items
	}
	metVecTopNPruned.Add(pruned)

	sort.Slice(items, func(i, j int) bool { return n.rowLess(&items[i], &items[j]) })
	emitted := int64(0)
	for i := offset; i < int64(len(items)); i++ {
		if limit >= 0 && emitted >= limit {
			break
		}
		row := items[i].row
		if n.trim > 0 && n.trim < len(row) {
			row = row[:n.trim]
		}
		if err := emit(row); err != nil {
			return err
		}
		emitted++
	}
	return nil
}
