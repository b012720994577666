package baton

import (
	"fmt"
	"sort"
	"sync"

	"bestpeer/internal/pnet"
)

// Item is one entry stored in the overlay: an index entry, a histogram
// bucket, or any other piece of shared metadata. Name is the full
// logical key (StringKey compresses it to 8 bytes, so exact matching
// uses Name); Owner identifies the publishing peer, letting a peer
// delete or refresh exactly its own entries.
type Item struct {
	Key   Key
	Name  string
	Owner string
	Value interface{}
	Size  int64
}

// RTEntry is one routing-table slot: a same-level node at distance 2^i,
// with its managed subdomain (R0) and subtree domain (Sub, the paper's
// R1) used to route queries in O(log N) hops.
type RTEntry struct {
	ID  string
	R0  KeyRange
	Sub KeyRange
}

// NodeState is the complete local view of one overlay node: its tree
// position, links, ranges, and routing tables. The Overlay manager
// installs new state after every membership change.
type NodeState struct {
	ID       string
	Level    int
	Number   int
	Parent   string
	Left     string // left child
	Right    string // right child
	LeftAdj  string // in-order predecessor
	RightAdj string // in-order successor
	R0       KeyRange
	Sub      KeyRange // R1 in the paper
	LeftRT   []RTEntry
	RightRT  []RTEntry
}

// Message types exchanged between overlay nodes.
const (
	msgLookup     = "baton.lookup"
	msgInsert     = "baton.insert"
	msgDelete     = "baton.delete"
	msgRange      = "baton.range"
	msgUpdate     = "baton.update"
	msgExtract    = "baton.extract"
	msgAccept     = "baton.accept"
	msgItems      = "baton.items"
	msgStats      = "baton.stats"
	msgReplicaPut = "baton.replica.put"
	msgReplicaGet = "baton.replica.get"
)

type lookupReq struct {
	Key  Key
	Name string
	Hops int
}

type lookupResp struct {
	Items []Item
	Hops  int
}

type insertReq struct {
	Item Item
	Hops int
}

type deleteReq struct {
	Key   Key
	Name  string
	Owner string // "" = any owner
	Hops  int
}

type opResp struct {
	Hops    int
	Deleted int
}

type rangeReq struct {
	Range KeyRange
	Hops  int
}

// replicaPut carries one adjacent-replica push: a full item-set resync
// (Op == repOpFull) or a sequence-numbered delta (add/del/cut). Seq is
// the owner's mutation counter at the time the mutation applied; the
// holder applies deltas only in sequence order and rejects gaps, which
// forces the owner to resync.
type replicaPut struct {
	Owner string
	Items []Item
	Op    string
	Seq   uint64
	// Delete-delta selector (repOpDel): mirrors deleteReq semantics.
	Name      string
	ItemOwner string
	// Cut-delta selector (repOpCut): items extracted from the owner.
	Range KeyRange
}

// Node is one overlay participant. All query-path operations (Lookup,
// Insert, Delete, RangeSearch) route peer-to-peer starting from this
// node, using only its local state.
type Node struct {
	ep *pnet.Endpoint

	mu       sync.RWMutex
	state    NodeState
	items    []Item            // sorted by Key, then Name
	replicas map[string][]Item // owner node ID -> adjacent-replica items

	// replicaSeq tracks the last applied adjacent-replica sequence
	// number per owner (delta ordering; guarded by mu).
	replicaSeq map[string]uint64
	// replSeq counts this node's own mutations; each delta push
	// carries the value assigned when its mutation applied (mu).
	replSeq uint64
	// pushMu serializes adjacent-replica pushes; push is the holder
	// bookkeeping behind the delta/full decision (guarded by pushMu).
	pushMu sync.Mutex
	push   pushState
}

// NewNode attaches a new overlay node to a pnet endpoint and registers
// its message handlers. The node is inert until the Overlay manager
// installs its state via AddNode. Read-only verbs (lookup, range,
// stats, items, replica reads) are registered idempotent — the
// hardened transport may safely re-send them after a timeout — while
// index mutations (insert, delete, update, extract, accept, replica
// writes) never retry: delivering them twice would corrupt the tree.
func NewNode(ep *pnet.Endpoint) *Node {
	n := &Node{
		ep:         ep,
		replicas:   make(map[string][]Item),
		replicaSeq: make(map[string]uint64),
	}
	ep.HandleIdempotent(msgLookup, n.handleLookup)
	ep.Handle(msgInsert, n.handleInsert)
	ep.Handle(msgDelete, n.handleDelete)
	ep.HandleIdempotent(msgRange, n.handleRange)
	ep.Handle(msgUpdate, n.handleUpdate)
	ep.Handle(msgExtract, n.handleExtract)
	ep.Handle(msgAccept, n.handleAccept)
	ep.HandleIdempotent(msgItems, n.handleItems)
	ep.HandleIdempotent(msgStats, n.handleStats)
	ep.Handle(msgReplicaPut, n.handleReplicaPut)
	ep.HandleIdempotent(msgReplicaGet, n.handleReplicaGet)
	// The query-path verbs block only on nested calls through the same
	// transport (routing hops), each carrying its own deadline, so they
	// run unguarded in-process: a lookup chain must not pay one guard
	// goroutine per hop.
	ep.Network().MarkInline(msgLookup, msgInsert, msgDelete, msgRange, msgStats, msgItems)
	return n
}

// ID returns the node's peer ID.
func (n *Node) ID() string { return n.ep.ID() }

// State returns a copy of the node's current overlay state.
func (n *Node) State() NodeState {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.state
}

// NumItems returns the number of locally stored items.
func (n *Node) NumItems() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.items)
}

// routeNext decides where to forward an operation on key k: "" means the
// key belongs to this node. The logic follows the BATON search algorithm:
// jump through the farthest useful routing-table entry, otherwise descend
// to a child or fall back to adjacent/parent links.
func (n *Node) routeNext(k Key) string {
	s := n.state
	if s.R0.Contains(k) {
		return ""
	}
	if k < s.R0.Lo {
		// Farthest left routing-table node whose subtree still reaches
		// beyond k; its subtree either holds k or is closer to it.
		for i := len(s.LeftRT) - 1; i >= 0; i-- {
			e := s.LeftRT[i]
			if e.ID != "" && e.Sub.Hi > k {
				return e.ID
			}
		}
		if s.Left != "" {
			return s.Left
		}
		if s.LeftAdj != "" {
			return s.LeftAdj
		}
		return s.Parent
	}
	// k >= s.R0.Hi: symmetric to the right.
	for i := len(s.RightRT) - 1; i >= 0; i-- {
		e := s.RightRT[i]
		if e.ID != "" && e.Sub.Lo <= k {
			return e.ID
		}
	}
	if s.Right != "" {
		return s.Right
	}
	if s.RightAdj != "" {
		return s.RightAdj
	}
	return s.Parent
}

// --- query-path handlers (fully decentralized) ---

func (n *Node) handleLookup(msg pnet.Message) (pnet.Message, error) {
	req := msg.Payload.(lookupReq)
	n.mu.RLock()
	next := n.routeNext(req.Key)
	n.mu.RUnlock()
	if next != "" {
		req.Hops++
		reply, err := n.ep.Call(next, msgLookup, req, 16)
		if err != nil {
			return pnet.Message{}, err
		}
		return reply, nil
	}
	n.mu.RLock()
	var out []Item
	var size int64
	for _, it := range n.items {
		if it.Name == req.Name {
			out = append(out, it)
			size += it.Size
		}
	}
	n.mu.RUnlock()
	return pnet.Message{Payload: lookupResp{Items: out, Hops: req.Hops}, Size: size}, nil
}

func (n *Node) handleInsert(msg pnet.Message) (pnet.Message, error) {
	req := msg.Payload.(insertReq)
	n.mu.RLock()
	next := n.routeNext(req.Item.Key)
	n.mu.RUnlock()
	if next != "" {
		req.Hops++
		return n.ep.Call(next, msgInsert, req, req.Item.Size+16)
	}
	n.mu.Lock()
	n.storeLocked(req.Item)
	n.replSeq++
	seq := n.replSeq
	n.mu.Unlock()
	n.pushAdjacent(replicaPut{Op: repOpAdd, Seq: seq, Items: []Item{req.Item}})
	return pnet.Message{Payload: opResp{Hops: req.Hops}}, nil
}

func (n *Node) handleDelete(msg pnet.Message) (pnet.Message, error) {
	req := msg.Payload.(deleteReq)
	n.mu.RLock()
	next := n.routeNext(req.Key)
	n.mu.RUnlock()
	if next != "" {
		req.Hops++
		return n.ep.Call(next, msgDelete, req, 16)
	}
	n.mu.Lock()
	kept := n.items[:0]
	deleted := 0
	for _, it := range n.items {
		if it.Name == req.Name && (req.Owner == "" || it.Owner == req.Owner) {
			deleted++
			continue
		}
		kept = append(kept, it)
	}
	n.items = kept
	var seq uint64
	if deleted > 0 {
		n.replSeq++
		seq = n.replSeq
	}
	n.mu.Unlock()
	if deleted > 0 {
		n.pushAdjacent(replicaPut{Op: repOpDel, Seq: seq, Name: req.Name, ItemOwner: req.Owner})
	}
	return pnet.Message{Payload: opResp{Hops: req.Hops, Deleted: deleted}}, nil
}

// handleRange routes to the node owning Range.Lo, then walks the
// in-order successor chain until the range is exhausted, concatenating
// matches into the reply.
func (n *Node) handleRange(msg pnet.Message) (pnet.Message, error) {
	req := msg.Payload.(rangeReq)
	n.mu.RLock()
	next := n.routeNext(req.Range.Lo)
	n.mu.RUnlock()
	if next != "" {
		req.Hops++
		return n.ep.Call(next, msgRange, req, 16)
	}
	// This node owns the start of the range: collect and walk right.
	var out []Item
	var size int64
	hops := req.Hops
	n.mu.RLock()
	for _, it := range n.items {
		if req.Range.Contains(it.Key) {
			out = append(out, it)
			size += it.Size
		}
	}
	rightAdj := n.state.RightAdj
	r0hi := n.state.R0.Hi
	n.mu.RUnlock()
	if r0hi < req.Range.Hi && rightAdj != "" {
		cont := rangeReq{Range: KeyRange{Lo: r0hi, Hi: req.Range.Hi}, Hops: hops + 1}
		reply, err := n.ep.Call(rightAdj, msgRange, cont, 16)
		if err != nil {
			return pnet.Message{}, err
		}
		resp := reply.Payload.(lookupResp)
		out = append(out, resp.Items...)
		size += reply.Size
		hops = resp.Hops
	}
	return pnet.Message{Payload: lookupResp{Items: out, Hops: hops}, Size: size}, nil
}

// --- maintenance handlers (driven by the Overlay manager) ---

func (n *Node) handleUpdate(msg pnet.Message) (pnet.Message, error) {
	st := msg.Payload.(NodeState)
	n.mu.Lock()
	oldHolder := n.state.replicaHolder()
	n.state = st
	n.mu.Unlock()
	if st.replicaHolder() != oldHolder {
		// New replica holder: force a full resync.
		n.pushAdjacent(replicaPut{Op: repOpFull})
	}
	return pnet.Message{}, nil
}

func (n *Node) handleExtract(msg pnet.Message) (pnet.Message, error) {
	r := msg.Payload.(KeyRange)
	n.mu.Lock()
	kept := n.items[:0]
	var moved []Item
	var size int64
	for _, it := range n.items {
		if r.Contains(it.Key) {
			moved = append(moved, it)
			size += it.Size
		} else {
			kept = append(kept, it)
		}
	}
	n.items = kept
	var seq uint64
	if len(moved) > 0 {
		n.replSeq++
		seq = n.replSeq
	}
	n.mu.Unlock()
	if len(moved) > 0 {
		n.pushAdjacent(replicaPut{Op: repOpCut, Seq: seq, Range: r})
	}
	return pnet.Message{Payload: moved, Size: size}, nil
}

func (n *Node) handleAccept(msg pnet.Message) (pnet.Message, error) {
	items := msg.Payload.([]Item)
	n.mu.Lock()
	for _, it := range items {
		n.storeLocked(it)
	}
	var seq uint64
	if len(items) > 0 {
		n.replSeq++
		seq = n.replSeq
	}
	n.mu.Unlock()
	if len(items) > 0 {
		n.pushAdjacent(replicaPut{Op: repOpAdd, Seq: seq, Items: items})
	}
	return pnet.Message{}, nil
}

func (n *Node) handleItems(msg pnet.Message) (pnet.Message, error) {
	n.mu.RLock()
	out := append([]Item(nil), n.items...)
	var size int64
	for _, it := range out {
		size += it.Size
	}
	n.mu.RUnlock()
	return pnet.Message{Payload: out, Size: size}, nil
}

func (n *Node) handleStats(msg pnet.Message) (pnet.Message, error) {
	n.mu.RLock()
	count := len(n.items)
	n.mu.RUnlock()
	return pnet.Message{Payload: count, Size: 8}, nil
}

// handleReplicaPut maintains this node's copy of an adjacent owner's
// item set. A full push replaces the copy and anchors the sequence; a
// delta applies only if it is the immediate successor of the last
// applied mutation — anything older is already covered by the anchor
// (ack OK, no-op), and a gap means a delta was lost, so the holder
// refuses and the owner falls back to a full resync.
func (n *Node) handleReplicaPut(msg pnet.Message) (pnet.Message, error) {
	put := msg.Payload.(replicaPut)
	n.mu.Lock()
	defer n.mu.Unlock()
	if put.Op == repOpFull {
		n.replicas[put.Owner] = put.Items
		n.replicaSeq[put.Owner] = put.Seq
		return pnet.Message{Payload: repAck{OK: true}}, nil
	}
	last := n.replicaSeq[put.Owner]
	if put.Seq <= last {
		return pnet.Message{Payload: repAck{OK: true}}, nil
	}
	if put.Seq != last+1 {
		return pnet.Message{Payload: repAck{OK: false}}, nil
	}
	cur := n.replicas[put.Owner]
	switch put.Op {
	case repOpAdd:
		cur = append(cur, put.Items...)
	case repOpDel:
		kept := cur[:0]
		for _, it := range cur {
			if it.Name == put.Name && (put.ItemOwner == "" || it.Owner == put.ItemOwner) {
				continue
			}
			kept = append(kept, it)
		}
		cur = kept
	case repOpCut:
		kept := cur[:0]
		for _, it := range cur {
			if put.Range.Contains(it.Key) {
				continue
			}
			kept = append(kept, it)
		}
		cur = kept
	default:
		return pnet.Message{Payload: repAck{OK: false}}, nil
	}
	n.replicas[put.Owner] = cur
	n.replicaSeq[put.Owner] = put.Seq
	return pnet.Message{Payload: repAck{OK: true}}, nil
}

func (n *Node) handleReplicaGet(msg pnet.Message) (pnet.Message, error) {
	owner := msg.Payload.(string)
	n.mu.RLock()
	items := append([]Item(nil), n.replicas[owner]...)
	var size int64
	for _, it := range items {
		size += it.Size
	}
	n.mu.RUnlock()
	return pnet.Message{Payload: items, Size: size}, nil
}

// storeLocked inserts an item preserving key order. Callers hold n.mu.
func (n *Node) storeLocked(it Item) {
	i := sort.Search(len(n.items), func(i int) bool {
		if n.items[i].Key != it.Key {
			return n.items[i].Key > it.Key
		}
		return n.items[i].Name >= it.Name
	})
	n.items = append(n.items, Item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = it
}

// --- client API (paper Table 1) ---

// Lookup finds all items published under the exact name, routing from
// this node. It returns the items and the number of overlay hops taken.
func (n *Node) Lookup(name string) ([]Item, int, error) {
	reply, err := n.ep.Call(n.ID(), msgLookup, lookupReq{Key: StringKey(name), Name: name}, 16)
	if err != nil {
		return nil, 0, err
	}
	resp := reply.Payload.(lookupResp)
	return resp.Items, resp.Hops, nil
}

// Insert publishes an item into the overlay, routing from this node.
// The item's Key must be set (StringKey/FloatKey of its logical key).
func (n *Node) Insert(it Item) (int, error) {
	if it.Owner == "" {
		it.Owner = n.ID()
	}
	reply, err := n.ep.Call(n.ID(), msgInsert, insertReq{Item: it}, it.Size+16)
	if err != nil {
		return 0, err
	}
	return reply.Payload.(opResp).Hops, nil
}

// Delete removes items matching name (and owner, when non-empty). It
// returns the number of removed items and the hops taken.
func (n *Node) Delete(name, owner string) (int, int, error) {
	reply, err := n.ep.Call(n.ID(), msgDelete, deleteReq{Key: StringKey(name), Name: name, Owner: owner}, 16)
	if err != nil {
		return 0, 0, err
	}
	resp := reply.Payload.(opResp)
	return resp.Deleted, resp.Hops, nil
}

// RangeSearch returns every item whose key falls in r, in key order.
func (n *Node) RangeSearch(r KeyRange) ([]Item, int, error) {
	if r.Hi <= r.Lo {
		return nil, 0, fmt.Errorf("baton: empty range [%v, %v)", r.Lo, r.Hi)
	}
	reply, err := n.ep.Call(n.ID(), msgRange, rangeReq{Range: r}, 16)
	if err != nil {
		return nil, 0, err
	}
	resp := reply.Payload.(lookupResp)
	return resp.Items, resp.Hops, nil
}
