package baton

import (
	"fmt"
	"sort"
)

// Load balancing (paper §4.3): BATON first balances load between
// adjacent nodes by shifting the shared subdomain boundary; when no
// adjacent node can absorb the load, it performs a global adjustment by
// relocating an under-loaded leaf into the overloaded region. Both
// schemes are implemented here on the coordinator, which in BestPeer++
// is the bootstrap peer's role. Load is item cardinality, the paper's
// formulation.

// imbalanceFactor is the load ratio between neighbours above which a
// boundary shift is triggered.
const imbalanceFactor = 2

// loadOf fetches a node's item count.
func (o *Overlay) loadOf(id string) (int, error) {
	reply, err := o.ep.Call(id, msgStats, nil, 8)
	if err != nil {
		return 0, err
	}
	return reply.Payload.(int), nil
}

// topoSnap is one node of a pass's topology snapshot: enough to detect
// any concurrent membership or boundary change after the lock is
// dropped for load collection.
type topoSnap struct {
	id   string
	r0   KeyRange
	leaf bool
}

// snapshotTopology captures the in-order node list under the lock.
func (o *Overlay) snapshotTopology() []topoSnap {
	o.mu.Lock()
	defer o.mu.Unlock()
	ord := inorder(o.root)
	out := make([]topoSnap, len(ord))
	for i, t := range ord {
		out[i] = topoSnap{id: t.id, r0: t.r0, leaf: t.left == nil && t.right == nil}
	}
	return out
}

// topologyMatchesLocked re-derives the in-order list and reports
// whether it still matches a snapshot taken before the lock was
// dropped. Callers hold o.mu.
func (o *Overlay) topologyMatchesLocked(snaps []topoSnap) ([]*tnode, bool) {
	ord := inorder(o.root)
	if len(ord) != len(snaps) {
		return nil, false
	}
	for i, t := range ord {
		s := snaps[i]
		if t.id != s.id || t.r0 != s.r0 || (t.left == nil && t.right == nil) != s.leaf {
			return nil, false
		}
	}
	return ord, true
}

// collectCounts gathers every snapshotted node's item count without
// holding o.mu, so a slow peer cannot stall concurrent membership
// operations for the whole pass.
func (o *Overlay) collectCounts(snaps []topoSnap) ([]int, error) {
	counts := make([]int, len(snaps))
	for i, s := range snaps {
		c, err := o.loadOf(s.id)
		if err != nil {
			return nil, err
		}
		counts[i] = c
	}
	return counts, nil
}

// BalanceAdjacent performs one pass of adjacent-node load balancing:
// every in-order neighbour pair whose loads differ by more than
// imbalanceFactor has its shared boundary shifted so the pair's load
// splits evenly. Loads are collected without holding the coordinator
// lock; if membership or any boundary changed meanwhile, the pass is
// abandoned (the next epoch retries with fresh evidence). It returns
// the number of boundary shifts performed.
func (o *Overlay) BalanceAdjacent() (int, error) {
	snaps := o.snapshotTopology()
	if len(snaps) < 2 {
		return 0, nil
	}
	counts, err := o.collectCounts(snaps)
	if err != nil {
		return 0, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	ord, ok := o.topologyMatchesLocked(snaps)
	if !ok {
		return 0, nil
	}
	shifts := 0
	for i := 0; i+1 < len(ord); i++ {
		moved, err := o.balancePairLocked(ord[i], ord[i+1], counts, i, i+1)
		if err != nil {
			return shifts, err
		}
		if moved {
			shifts++
		}
	}
	if shifts > 0 {
		return shifts, o.refresh()
	}
	return 0, nil
}

// balancePairLocked equalizes the load between two in-order neighbours
// by moving their common subdomain boundary to the pair's median item
// key (the paper's cardinality split). Callers hold o.mu; ia/ib index
// the pair in counts.
func (o *Overlay) balancePairLocked(a, b *tnode, counts []int, ia, ib int) (bool, error) {
	if a.r0.Hi != b.r0.Lo {
		// Boundary is not shared (shouldn't happen with contiguous
		// in-order ranges); skip rather than corrupt ranges.
		return false, nil
	}
	la, lb := counts[ia], counts[ib]
	if la <= imbalanceFactor*lb+1 && lb <= imbalanceFactor*la+1 {
		return false, nil
	}
	itemsA, err := o.fetchItems(a.id)
	if err != nil {
		return false, err
	}
	itemsB, err := o.fetchItems(b.id)
	if err != nil {
		return false, err
	}
	all := append(append([]Item(nil), itemsA...), itemsB...)
	if len(all) < 2 {
		return false, nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	// New boundary: key of the first item of the upper half. Items with
	// keys >= boundary live in b afterwards.
	boundary := all[len(all)/2].Key
	if boundary <= a.r0.Lo || boundary >= b.r0.Hi {
		return false, nil
	}
	switch {
	case boundary < a.r0.Hi:
		if err := o.moveRange(a.id, b.id, KeyRange{Lo: boundary, Hi: a.r0.Hi}); err != nil {
			return false, err
		}
	case boundary > b.r0.Lo:
		if err := o.moveRange(b.id, a.id, KeyRange{Lo: b.r0.Lo, Hi: boundary}); err != nil {
			return false, err
		}
	default:
		return false, nil
	}
	a.r0.Hi = boundary
	b.r0.Lo = boundary
	// Keep the pass's counts exact for the pairs still to come.
	na := sort.Search(len(all), func(i int) bool { return all[i].Key >= boundary })
	counts[ia], counts[ib] = na, len(all)-na
	return true, nil
}

// GlobalRebalance performs the paper's global adjustment: when the most
// loaded node still dwarfs the least loaded leaf after adjacent
// balancing, the under-loaded leaf is relocated to become a child of the
// overloaded node (splitting the hot subdomain), or — when the
// overloaded node has no free child slot — its boundary with its lighter
// neighbour is shifted instead. Loads are collected outside the lock;
// a concurrent topology change abandons the pass. Returns whether any
// adjustment was made.
func (o *Overlay) GlobalRebalance() (bool, error) {
	snaps := o.snapshotTopology()
	if len(snaps) < 3 {
		return false, nil
	}
	counts, err := o.collectCounts(snaps)
	if err != nil {
		return false, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	ord, ok := o.topologyMatchesLocked(snaps)
	if !ok {
		return false, nil
	}
	hotIdx, coldIdx := -1, -1
	var hotLoad, coldLoad int
	for i, t := range ord {
		w := counts[i]
		if hotIdx < 0 || w > hotLoad {
			hotIdx, hotLoad = i, w
		}
		if t.left == nil && t.right == nil {
			if coldIdx < 0 || w < coldLoad {
				coldIdx, coldLoad = i, w
			}
		}
	}
	if hotIdx < 0 || coldIdx < 0 || hotIdx == coldIdx {
		return false, nil
	}
	hot, coldLeaf := ord[hotIdx], ord[coldIdx]
	if hotLoad <= 2*imbalanceFactor*coldLoad+1 {
		return false, nil
	}
	if hot.left != nil && hot.right != nil {
		// No free slot under the hot node: shift a boundary instead.
		var moved bool
		var err error
		if hotIdx+1 < len(ord) {
			moved, err = o.balancePairLocked(hot, ord[hotIdx+1], counts, hotIdx, hotIdx+1)
		} else {
			moved, err = o.balancePairLocked(ord[hotIdx-1], hot, counts, hotIdx-1, hotIdx)
		}
		if err != nil {
			return false, err
		}
		if moved {
			return true, o.refresh()
		}
		return false, nil
	}
	// Relocate the cold leaf: detach it (merging its range into a
	// neighbour) and re-attach it under the hot node, taking half of the
	// hot node's subdomain and the items inside.
	coldID := coldLeaf.id
	if coldLeaf == hot || coldLeaf.parent == hot {
		return false, nil
	}
	heir := o.removeLeafFromTree(coldLeaf)
	if err := o.moveRange(coldID, heir.id, FullRange()); err != nil {
		return false, err
	}
	t := &tnode{id: coldID, parent: hot}
	mid := hot.r0.Mid()
	if hot.left == nil {
		t.r0 = KeyRange{Lo: hot.r0.Lo, Hi: mid}
		hot.r0.Lo = mid
		hot.left = t
	} else {
		t.r0 = KeyRange{Lo: mid, Hi: hot.r0.Hi}
		hot.r0.Hi = mid
		hot.right = t
	}
	o.byID[coldID] = t
	o.nodes++
	if err := o.moveRange(hot.id, coldID, t.r0); err != nil {
		return false, err
	}
	return true, o.refresh()
}

// CheckInvariants verifies the overlay's structural invariants: ranges
// partition the domain in in-order order, subtree ranges cover their
// descendants, and every node's installed state matches the
// coordinator's view. Tests call it after each mutation.
func (o *Overlay) CheckInvariants(nodesByID map[string]*Node) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.root == nil {
		if o.nodes != 0 {
			return fmt.Errorf("baton: empty tree but %d nodes", o.nodes)
		}
		return nil
	}
	ord := inorder(o.root)
	if len(ord) != o.nodes {
		return fmt.Errorf("baton: tree has %d nodes, counter says %d", len(ord), o.nodes)
	}
	if ord[0].r0.Lo != 0 {
		return fmt.Errorf("baton: domain starts at %v, want 0", ord[0].r0.Lo)
	}
	if ord[len(ord)-1].r0.Hi != 1 {
		return fmt.Errorf("baton: domain ends at %v, want 1", ord[len(ord)-1].r0.Hi)
	}
	for i := 0; i+1 < len(ord); i++ {
		if ord[i].r0.Hi != ord[i+1].r0.Lo {
			return fmt.Errorf("baton: gap between %s and %s (%v != %v)",
				ord[i].id, ord[i+1].id, ord[i].r0.Hi, ord[i+1].r0.Lo)
		}
	}
	for id, n := range nodesByID {
		t, ok := o.byID[id]
		if !ok {
			continue // departed node
		}
		st := n.State()
		if st.R0 != t.r0 {
			return fmt.Errorf("baton: node %s installed R0 %+v != coordinator %+v", id, st.R0, t.r0)
		}
		for _, it := range itemsOf(n) {
			if !st.R0.Contains(it.Key) {
				return fmt.Errorf("baton: node %s holds item %q with key %v outside R0 %+v", id, it.Name, it.Key, st.R0)
			}
		}
	}
	return nil
}

// itemsOf snapshots a node's items (test support).
func itemsOf(n *Node) []Item {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]Item(nil), n.items...)
}
