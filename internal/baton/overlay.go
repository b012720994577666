package baton

import (
	"fmt"
	"sort"
	"sync"

	"bestpeer/internal/pnet"
)

// Overlay is the membership coordinator for a BATON network. In
// BestPeer++ every join and departure is serialized through the
// bootstrap peer (paper §3.1), so the coordinator role maps directly
// onto the system being reproduced: it decides where a joining node
// attaches, which leaf replaces a departing internal node, when ranges
// rebalance, and it installs refreshed routing state on every node after
// a change. The query path never touches the coordinator.
type Overlay struct {
	mu    sync.Mutex
	ep    *pnet.Endpoint
	root  *tnode
	byID  map[string]*tnode
	nodes int
}

// tnode is the coordinator's record of one overlay node: tree links plus
// the node's current subdomain. R0 boundaries are authoritative here and
// pushed to nodes on refresh.
type tnode struct {
	id                  string
	parent, left, right *tnode
	r0                  KeyRange
}

// NewOverlay creates a coordinator attached to the network under the
// given peer ID (conventionally the bootstrap peer's ID plus a suffix).
func NewOverlay(net *pnet.Network, id string) *Overlay {
	return &Overlay{
		ep:   net.Join(id),
		byID: make(map[string]*tnode),
	}
}

// Size returns the number of nodes in the overlay.
func (o *Overlay) Size() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nodes
}

// Members returns the IDs of all overlay nodes in in-order (key) order.
func (o *Overlay) Members() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []string
	for _, t := range inorder(o.root) {
		out = append(out, t.id)
	}
	return out
}

// AddNode admits a node into the overlay. The first node becomes the
// root owning the full key domain; later nodes attach at the shallowest
// free child slot (keeping the tree balanced) and take half of their
// parent's subdomain, receiving the items that fall into it.
func (o *Overlay) AddNode(n *Node) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	id := n.ID()
	if _, ok := o.byID[id]; ok {
		return fmt.Errorf("baton: node %s already in overlay", id)
	}
	t := &tnode{id: id}
	if o.root == nil {
		t.r0 = FullRange()
		o.root = t
	} else {
		parent := o.shallowestFreeSlot()
		mid := parent.r0.Mid()
		if parent.left == nil {
			// Left child becomes the in-order predecessor: lower half.
			t.r0 = KeyRange{Lo: parent.r0.Lo, Hi: mid}
			parent.r0.Lo = mid
			parent.left = t
		} else {
			t.r0 = KeyRange{Lo: mid, Hi: parent.r0.Hi}
			parent.r0.Hi = mid
			parent.right = t
		}
		t.parent = parent
		if err := o.moveRange(parent.id, id, t.r0); err != nil {
			return err
		}
	}
	o.byID[id] = t
	o.nodes++
	return o.refresh()
}

// RemoveNode handles a graceful departure: the node's subdomain and
// items merge into an in-order neighbour; an internal node is replaced
// by a deepest leaf, exactly as BATON's departure protocol does.
func (o *Overlay) RemoveNode(id string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.byID[id]
	if !ok {
		return fmt.Errorf("baton: node %s not in overlay", id)
	}
	if o.nodes == 1 {
		o.root = nil
		delete(o.byID, id)
		o.nodes = 0
		return nil
	}
	if t.left == nil && t.right == nil {
		heir := o.removeLeafFromTree(t)
		if err := o.moveRange(t.id, heir.id, FullRange()); err != nil {
			return err
		}
		return o.refresh()
	}
	// Internal node: promote a deepest leaf into its position. The leaf
	// vacates its own slot (its subdomain merges into an in-order
	// neighbour — possibly the departing node's slot, whose occupant the
	// leaf is about to become), then takes over the departing node's
	// tree links, subdomain, and items.
	leaf := o.deepestLeaf(t)
	leafOldR0 := leaf.r0
	heir := o.removeLeafFromTree(leaf)
	departItems, err := o.fetchItems(id)
	if err != nil {
		return err
	}
	t.id = leaf.id
	o.byID[t.id] = t
	delete(o.byID, id)
	if heir != t {
		// The leaf's old items belong to the heir now.
		if err := o.moveRange(leaf.id, heir.id, leafOldR0); err != nil {
			return err
		}
	}
	if err := o.sendItems(t.id, departItems); err != nil {
		return err
	}
	return o.refresh()
}

// Recover replaces a crashed node with a fresh one: the replacement
// takes over the failed node's tree position and restores its items from
// the adjacent replica. The caller must have created the replacement's
// endpoint and Node (typically after the cloud adapter launched a new
// instance) and marked the failed peer down in pnet.
func (o *Overlay) Recover(failedID string, replacement *Node) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.byID[failedID]
	if !ok {
		return fmt.Errorf("baton: node %s not in overlay", failedID)
	}
	// Locate the replica holder before rewiring: the failed node's
	// in-order successor (or predecessor for the rightmost node).
	ord := inorder(o.root)
	holder := ""
	for i, tn := range ord {
		if tn == t {
			if i+1 < len(ord) {
				holder = ord[i+1].id
			} else if i > 0 {
				holder = ord[i-1].id
			}
			break
		}
	}
	t.id = replacement.ID()
	o.byID[t.id] = t
	delete(o.byID, failedID)
	if err := o.refresh(); err != nil {
		return err
	}
	if holder == "" {
		return nil
	}
	reply, err := o.ep.Call(holder, msgReplicaGet, failedID, 16)
	if err != nil {
		return fmt.Errorf("baton: fetching replica of %s from %s: %w", failedID, holder, err)
	}
	items := reply.Payload.([]Item)
	return o.sendItems(t.id, items)
}

// removeLeafFromTree unlinks a leaf, merging its subdomain into an
// in-order neighbour (the successor, or the predecessor for the
// rightmost leaf), and returns that heir. Items are NOT moved; callers
// decide where they go (the heir on departure, or the leaf's own new
// slot when it is being promoted into a departing node's position).
// Callers hold o.mu and must not call this on the last remaining node.
func (o *Overlay) removeLeafFromTree(leaf *tnode) *tnode {
	ord := inorder(o.root)
	idx := -1
	for i, t := range ord {
		if t == leaf {
			idx = i
			break
		}
	}
	var heir *tnode
	if idx+1 < len(ord) {
		heir = ord[idx+1]
	} else {
		heir = ord[idx-1]
	}
	// Merge ranges: heir's range grows to cover the leaf's. In-order
	// neighbours always abut because subdomains stay contiguous.
	if heir.r0.Lo == leaf.r0.Hi {
		heir.r0.Lo = leaf.r0.Lo
	} else {
		heir.r0.Hi = leaf.r0.Hi
	}
	p := leaf.parent
	if p != nil {
		if p.left == leaf {
			p.left = nil
		} else {
			p.right = nil
		}
	} else {
		o.root = nil
	}
	delete(o.byID, leaf.id)
	o.nodes--
	return heir
}

// deepestLeaf returns a leaf of maximal depth, excluding the given node.
func (o *Overlay) deepestLeaf(exclude *tnode) *tnode {
	var best *tnode
	bestDepth := -1
	var walk func(t *tnode, depth int)
	walk = func(t *tnode, depth int) {
		if t == nil {
			return
		}
		if t.left == nil && t.right == nil && t != exclude && depth > bestDepth {
			best, bestDepth = t, depth
		}
		walk(t.left, depth+1)
		walk(t.right, depth+1)
	}
	walk(o.root, 0)
	return best
}

// shallowestFreeSlot returns the first node in BFS order with a free
// child slot, keeping the tree balanced as nodes join.
func (o *Overlay) shallowestFreeSlot() *tnode {
	queue := []*tnode{o.root}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if t.left == nil || t.right == nil {
			return t
		}
		queue = append(queue, t.left, t.right)
	}
	return nil
}

// moveRange extracts items in r from one node and delivers them to
// another, via the nodes' own maintenance handlers. Extraction is
// destructive, so a delivery failure (the receiver died or was
// partitioned away mid-restructure) must not strand the extracted
// items: they are restored to the source before the error surfaces,
// leaving ranges and items exactly as before the attempt.
func (o *Overlay) moveRange(from, to string, r KeyRange) error {
	reply, err := o.ep.Call(from, msgExtract, r, 16)
	if err != nil {
		return err
	}
	items := reply.Payload.([]Item)
	if err := o.sendItems(to, items); err != nil {
		if rerr := o.sendItems(from, items); rerr != nil {
			return fmt.Errorf("baton: move %s -> %s failed (%v); restoring %d items to %s also failed: %w",
				from, to, err, len(items), from, rerr)
		}
		return err
	}
	return nil
}

func (o *Overlay) fetchItems(id string) ([]Item, error) {
	reply, err := o.ep.Call(id, msgItems, nil, 16)
	if err != nil {
		return nil, err
	}
	return reply.Payload.([]Item), nil
}

func (o *Overlay) sendItems(id string, items []Item) error {
	if len(items) == 0 {
		return nil
	}
	var size int64
	for _, it := range items {
		size += it.Size
	}
	_, err := o.ep.Call(id, msgAccept, items, size)
	return err
}

// inorder returns the tree's nodes in in-order sequence (consecutive
// subdomains).
func inorder(t *tnode) []*tnode {
	if t == nil {
		return nil
	}
	out := inorder(t.left)
	out = append(out, t)
	return append(out, inorder(t.right)...)
}

// refresh recomputes every node's overlay state — position, links,
// subtree ranges, routing tables — and installs it. Called after each
// membership or boundary change, mirroring BATON's restructuring
// messages (amortized O(log^2 N) per change in the paper; the
// coordinator pays O(N) messages here, which only affects maintenance
// traffic, not the measured query path).
func (o *Overlay) refresh() error {
	if o.root == nil {
		return nil
	}
	// Assign (level, number) positions: root is (0, 1); children of
	// (l, n) are (l+1, 2n-1) and (l+1, 2n).
	type posInfo struct {
		t      *tnode
		level  int
		number int
	}
	var all []posInfo
	byLevel := make(map[int]map[int]*tnode)
	var assign func(t *tnode, level, number int)
	assign = func(t *tnode, level, number int) {
		if t == nil {
			return
		}
		all = append(all, posInfo{t: t, level: level, number: number})
		if byLevel[level] == nil {
			byLevel[level] = make(map[int]*tnode)
		}
		byLevel[level][number] = t
		assign(t.left, level+1, 2*number-1)
		assign(t.right, level+1, 2*number)
	}
	assign(o.root, 0, 1)

	// Subtree ranges from in-order contiguity.
	sub := make(map[*tnode]KeyRange)
	var subOf func(t *tnode) KeyRange
	subOf = func(t *tnode) KeyRange {
		r := t.r0
		if t.left != nil {
			l := subOf(t.left)
			if l.Lo < r.Lo {
				r.Lo = l.Lo
			}
			if l.Hi > r.Hi {
				r.Hi = l.Hi
			}
		}
		if t.right != nil {
			rr := subOf(t.right)
			if rr.Lo < r.Lo {
				r.Lo = rr.Lo
			}
			if rr.Hi > r.Hi {
				r.Hi = rr.Hi
			}
		}
		sub[t] = r
		return r
	}
	subOf(o.root)

	ord := inorder(o.root)
	pos := make(map[*tnode]int, len(ord))
	for i, t := range ord {
		pos[t] = i
	}

	sort.SliceStable(all, func(i, j int) bool {
		if all[i].level != all[j].level {
			return all[i].level < all[j].level
		}
		return all[i].number < all[j].number
	})

	for _, p := range all {
		t := p.t
		st := NodeState{
			ID:     t.id,
			Level:  p.level,
			Number: p.number,
			R0:     t.r0,
			Sub:    sub[t],
		}
		if t.parent != nil {
			st.Parent = t.parent.id
		}
		if t.left != nil {
			st.Left = t.left.id
		}
		if t.right != nil {
			st.Right = t.right.id
		}
		if i := pos[t]; i > 0 {
			st.LeftAdj = ord[i-1].id
		}
		if i := pos[t]; i+1 < len(ord) {
			st.RightAdj = ord[i+1].id
		}
		level := byLevel[p.level]
		for d := 1; ; d *= 2 {
			n, ok := level[p.number-d]
			if p.number-d < 1 {
				break
			}
			e := RTEntry{}
			if ok {
				e = RTEntry{ID: n.id, R0: n.r0, Sub: sub[n]}
			}
			st.LeftRT = append(st.LeftRT, e)
		}
		maxNum := 1 << p.level
		for d := 1; ; d *= 2 {
			n, ok := level[p.number+d]
			if p.number+d > maxNum {
				break
			}
			e := RTEntry{}
			if ok {
				e = RTEntry{ID: n.id, R0: n.r0, Sub: sub[n]}
			}
			st.RightRT = append(st.RightRT, e)
		}
		if _, err := o.ep.Call(t.id, msgUpdate, st, 64); err != nil {
			return fmt.Errorf("baton: installing state on %s: %w", t.id, err)
		}
	}
	return nil
}
