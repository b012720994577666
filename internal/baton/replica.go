package baton

import "bestpeer/internal/telemetry"

// This file owns the adjacent-replica push path (crash recovery, paper
// [24]): mutations ship sequence-numbered deltas instead of the node's
// entire item set, with a full resync every replicaResyncEvery
// mutations or whenever a delta is lost or rejected.

// replicaResyncEvery bounds delta drift on the adjacent replica: after
// this many delta pushes the next push ships the full item set again,
// so a delta silently lost to the best-effort transport can desync the
// replica for a bounded window only.
const replicaResyncEvery = 64

// Adjacent-replica push accounting (process-wide).
var (
	repPushFull  = telemetry.Default.Counter("baton_replica_push_total", telemetry.L("kind", "full"))
	repPushDelta = telemetry.Default.Counter("baton_replica_push_total", telemetry.L("kind", "delta"))
	repPushBytes = telemetry.Default.Counter("baton_replica_push_bytes_total")
	repPushSaved = telemetry.Default.Counter("baton_replica_push_saved_bytes_total")
)

func init() {
	telemetry.Default.SetHelp("baton_replica_push_total",
		"Adjacent-replica pushes by kind: full item-set resyncs vs per-mutation deltas.")
	telemetry.Default.SetHelp("baton_replica_push_bytes_total",
		"Bytes shipped to adjacent replica holders (full pushes plus deltas).")
	telemetry.Default.SetHelp("baton_replica_push_saved_bytes_total",
		"Bytes a delta push avoided shipping versus re-sending the full item set.")
}

// repAck acknowledges an adjacent-replica push. OK=false means the
// holder rejected a delta (sequence gap) and the owner must resync.
type repAck struct {
	OK bool
}

// Adjacent-replica push ops.
const (
	repOpFull = ""    // replace the whole replica (also the legacy wire format)
	repOpAdd  = "add" // append Items
	repOpDel  = "del" // remove items matching Name (+ItemOwner when set)
	repOpCut  = "cut" // remove items whose keys fall in Range
)

// pushState tracks what the adjacent replica holder already has.
// Guarded by Node.pushMu.
type pushState struct {
	target string // holder of the last full push
	synced bool   // holder holds an exact copy
	deltas int    // delta pushes since the last full push
}

// itemsSize sums item payload sizes (the transport cost estimate used
// throughout the overlay).
func itemsSize(items []Item) int64 {
	var size int64
	for _, it := range items {
		size += it.Size
	}
	return size
}

// replicaHolder names the node holding this node's adjacent replica:
// the in-order successor, or the predecessor for the rightmost node —
// the same neighbour Overlay.Recover fetches the replica from.
func (s NodeState) replicaHolder() string {
	if s.RightAdj != "" {
		return s.RightAdj
	}
	return s.LeftAdj
}

// pushAdjacent ships one mutation to the adjacent replica holder.
// Pushes are serialized under pushMu so deltas arrive in sequence
// order; the holder rejects any gap and the next push resyncs with the
// full item set. d carries the mutation's delta (op + payload + the
// sequence number assigned under n.mu when the mutation applied); a
// repOpFull d forces a resync (adjacency changes).
func (n *Node) pushAdjacent(d replicaPut) {
	n.pushMu.Lock()
	defer n.pushMu.Unlock()
	n.mu.RLock()
	target := n.state.replicaHolder()
	id := n.state.ID
	fullSize := itemsSize(n.items)
	n.mu.RUnlock()
	if target == "" || id == "" {
		return
	}
	st := &n.push
	if d.Op != repOpFull && st.synced && st.target == target && st.deltas < replicaResyncEvery {
		d.Owner = id
		size := itemsSize(d.Items) + 16
		if reply, err := n.ep.Call(target, msgReplicaPut, d, size); err == nil {
			if ack, ok := reply.Payload.(repAck); ok && ack.OK {
				st.deltas++
				repPushDelta.Inc()
				repPushBytes.Add(size)
				if saved := fullSize - size; saved > 0 {
					repPushSaved.Add(saved)
				}
				return
			}
		}
		// Lost or rejected delta: the holder's copy can no longer be
		// trusted; fall through to a full resync.
	}
	n.mu.RLock()
	items := append([]Item(nil), n.items...)
	seq := n.replSeq
	n.mu.RUnlock()
	size := itemsSize(items)
	put := replicaPut{Owner: id, Op: repOpFull, Seq: seq, Items: items}
	if _, err := n.ep.Call(target, msgReplicaPut, put, size); err == nil {
		st.target, st.synced, st.deltas = target, true, 0
		repPushFull.Inc()
		repPushBytes.Add(size)
	} else {
		st.synced = false
	}
}
