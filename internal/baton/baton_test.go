package baton

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bestpeer/internal/pnet"
)

// testOverlay builds an overlay of n nodes and returns the coordinator,
// the nodes keyed by ID, and the underlying network.
func testOverlay(t *testing.T, n int) (*Overlay, map[string]*Node, *pnet.Network) {
	t.Helper()
	net := pnet.NewNetwork()
	o := NewOverlay(net, "@overlay")
	nodes := make(map[string]*Node, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("peer-%02d", i)
		node := NewNode(net.Join(id))
		if err := o.AddNode(node); err != nil {
			t.Fatalf("AddNode(%s): %v", id, err)
		}
		nodes[id] = node
	}
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatal(err)
	}
	return o, nodes, net
}

func TestKeyRangeBasics(t *testing.T) {
	r := KeyRange{Lo: 0.25, Hi: 0.5}
	if !r.Contains(0.25) || r.Contains(0.5) || r.Contains(0.1) {
		t.Error("Contains half-open semantics broken")
	}
	if r.Mid() != 0.375 {
		t.Errorf("Mid = %v", r.Mid())
	}
	if !r.Overlaps(KeyRange{Lo: 0.4, Hi: 0.6}) || r.Overlaps(KeyRange{Lo: 0.5, Hi: 0.6}) {
		t.Error("Overlaps broken")
	}
}

func TestStringKeyOrderPreserving(t *testing.T) {
	f := func(a, b string) bool {
		ka, kb := StringKey(a), StringKey(b)
		pa, pb := prefix8(a), prefix8(b)
		if pa < pb {
			return ka <= kb
		}
		if pa > pb {
			return ka >= kb
		}
		return ka == kb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if k := StringKey(""); k != 0 {
		t.Errorf("StringKey(\"\") = %v", k)
	}
	if k := StringKey("\xff\xff\xff\xff\xff\xff\xff\xff\xff"); k >= 1 {
		t.Errorf("StringKey(max) = %v, want < 1", k)
	}
}

func prefix8(s string) string {
	b := make([]byte, 8)
	copy(b, s)
	return string(b)
}

func TestFloatKeyNormalization(t *testing.T) {
	if FloatKey(5, 0, 10) != 0.5 {
		t.Error("midpoint")
	}
	if FloatKey(-1, 0, 10) != 0 {
		t.Error("below domain")
	}
	if k := FloatKey(11, 0, 10); k >= 1 || k < 0.99 {
		t.Errorf("above domain = %v", k)
	}
	if FloatKey(5, 10, 0) != 0 {
		t.Error("inverted domain")
	}
}

func TestSingleNodeOwnsFullDomain(t *testing.T) {
	_, nodes, _ := testOverlay(t, 1)
	st := nodes["peer-00"].State()
	if st.R0 != FullRange() || st.Sub != FullRange() {
		t.Errorf("state = %+v", st)
	}
	if st.Parent != "" || st.LeftAdj != "" || st.RightAdj != "" {
		t.Errorf("links = %+v", st)
	}
}

func TestInsertLookupDelete(t *testing.T) {
	_, nodes, _ := testOverlay(t, 8)
	entry := nodes["peer-03"]
	name := "table:lineitem"
	if _, err := entry.Insert(Item{Key: StringKey(name), Name: name, Value: "at-peer-03", Size: 32}); err != nil {
		t.Fatal(err)
	}
	// Lookup from a different node finds it.
	items, _, err := nodes["peer-07"].Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Value.(string) != "at-peer-03" || items[0].Owner != "peer-03" {
		t.Fatalf("items = %+v", items)
	}
	// Second insert under the same name from another owner accumulates.
	if _, err := nodes["peer-05"].Insert(Item{Key: StringKey(name), Name: name, Value: "at-peer-05", Size: 32}); err != nil {
		t.Fatal(err)
	}
	items, _, _ = nodes["peer-00"].Lookup(name)
	if len(items) != 2 {
		t.Fatalf("after second insert: %d items", len(items))
	}
	// Delete only one owner's entry.
	deleted, _, err := nodes["peer-01"].Delete(name, "peer-03")
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 1 {
		t.Errorf("deleted = %d", deleted)
	}
	items, _, _ = nodes["peer-00"].Lookup(name)
	if len(items) != 1 || items[0].Owner != "peer-05" {
		t.Fatalf("after delete: %+v", items)
	}
}

func TestLookupMissReturnsEmpty(t *testing.T) {
	_, nodes, _ := testOverlay(t, 4)
	items, _, err := nodes["peer-00"].Lookup("no-such-key")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Errorf("items = %+v", items)
	}
}

func TestRangeSearchAcrossNodes(t *testing.T) {
	_, nodes, _ := testOverlay(t, 10)
	// Spread 100 items uniformly over the key domain.
	for i := 0; i < 100; i++ {
		k := Key(float64(i) / 100)
		name := fmt.Sprintf("bucket-%03d", i)
		if _, err := nodes["peer-00"].Insert(Item{Key: k, Name: name, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	items, _, err := nodes["peer-09"].RangeSearch(KeyRange{Lo: 0.25, Hi: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 50 {
		t.Fatalf("range returned %d items, want 50", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i].Key < items[i-1].Key {
			t.Fatal("range results not in key order")
		}
	}
	// Full-domain range returns everything.
	all, _, err := nodes["peer-04"].RangeSearch(FullRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 100 {
		t.Errorf("full range = %d items", len(all))
	}
	if _, _, err := nodes["peer-00"].RangeSearch(KeyRange{Lo: 0.5, Hi: 0.5}); err == nil {
		t.Error("empty range accepted")
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	const n = 32
	_, nodes, _ := testOverlay(t, n)
	rng := rand.New(rand.NewSource(7))
	var ids []string
	for id := range nodes {
		ids = append(ids, id)
	}
	bound := 2*int(math.Log2(n)) + 2
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("key-%d", rng.Intn(10_000))
		start := nodes[ids[rng.Intn(len(ids))]]
		_, hops, err := start.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if hops > bound {
			t.Fatalf("lookup took %d hops, bound %d for %d nodes", hops, bound, n)
		}
	}
}

func TestItemsFollowRangeSplitsOnJoin(t *testing.T) {
	net := pnet.NewNetwork()
	o := NewOverlay(net, "@overlay")
	nodes := make(map[string]*Node)
	first := NewNode(net.Join("peer-00"))
	if err := o.AddNode(first); err != nil {
		t.Fatal(err)
	}
	nodes["peer-00"] = first
	for i := 0; i < 64; i++ {
		k := Key(float64(i) / 64)
		if _, err := first.Insert(Item{Key: k, Name: fmt.Sprintf("it-%d", i), Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	// Join 7 more nodes; items must redistribute with the range splits.
	for i := 1; i < 8; i++ {
		id := fmt.Sprintf("peer-%02d", i)
		node := NewNode(net.Join(id))
		if err := o.AddNode(node); err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		if err := o.CheckInvariants(nodes); err != nil {
			t.Fatalf("after join %d: %v", i, err)
		}
	}
	total := 0
	for _, n := range nodes {
		total += n.NumItems()
	}
	if total != 64 {
		t.Fatalf("items after churn = %d, want 64", total)
	}
	// All items still findable.
	for i := 0; i < 64; i++ {
		items, _, err := nodes["peer-05"].Lookup(fmt.Sprintf("it-%d", i))
		_ = items
		if err != nil {
			t.Fatal(err)
		}
	}
	all, _, err := nodes["peer-03"].RangeSearch(FullRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 64 {
		t.Errorf("range over all = %d", len(all))
	}
}

func TestLeafDeparture(t *testing.T) {
	o, nodes, _ := testOverlay(t, 8)
	for i := 0; i < 40; i++ {
		k := Key(float64(i) / 40)
		if _, err := nodes["peer-00"].Insert(Item{Key: k, Name: fmt.Sprintf("it-%d", i), Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	// peer-07 is the most recently joined: a leaf.
	if err := o.RemoveNode("peer-07"); err != nil {
		t.Fatal(err)
	}
	delete(nodes, "peer-07")
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatal(err)
	}
	all, _, err := nodes["peer-00"].RangeSearch(FullRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 40 {
		t.Errorf("items after departure = %d, want 40", len(all))
	}
}

func TestInternalDepartureReplacedByLeaf(t *testing.T) {
	o, nodes, _ := testOverlay(t, 12)
	for i := 0; i < 60; i++ {
		k := Key(float64(i) / 60)
		if _, err := nodes["peer-02"].Insert(Item{Key: k, Name: fmt.Sprintf("it-%d", i), Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	// peer-00 is the root: an internal node.
	if err := o.RemoveNode("peer-00"); err != nil {
		t.Fatal(err)
	}
	delete(nodes, "peer-00")
	if o.Size() != 11 {
		t.Errorf("size = %d", o.Size())
	}
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatal(err)
	}
	all, _, err := nodes["peer-05"].RangeSearch(FullRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 60 {
		t.Errorf("items after internal departure = %d, want 60", len(all))
	}
}

func TestChurnQuick(t *testing.T) {
	// Random joins and leaves; invariants and item conservation hold
	// throughout.
	net := pnet.NewNetwork()
	o := NewOverlay(net, "@overlay")
	nodes := make(map[string]*Node)
	rng := rand.New(rand.NewSource(42))
	nextID := 0
	itemCount := 0
	for step := 0; step < 60; step++ {
		if len(nodes) == 0 || rng.Intn(3) > 0 {
			id := fmt.Sprintf("peer-%03d", nextID)
			nextID++
			node := NewNode(net.Join(id))
			if err := o.AddNode(node); err != nil {
				t.Fatal(err)
			}
			nodes[id] = node
			// Publish a couple of items from the new node.
			for j := 0; j < 2; j++ {
				name := fmt.Sprintf("item-%d-%d", step, j)
				if _, err := node.Insert(Item{Key: StringKey(name), Name: name, Size: 8}); err != nil {
					t.Fatal(err)
				}
				itemCount++
			}
		} else {
			var ids []string
			for id := range nodes {
				ids = append(ids, id)
			}
			victim := ids[rng.Intn(len(ids))]
			if err := o.RemoveNode(victim); err != nil {
				t.Fatal(err)
			}
			net.Leave(victim)
			delete(nodes, victim)
		}
		if err := o.CheckInvariants(nodes); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(nodes) > 0 {
			var any *Node
			for _, n := range nodes {
				any = n
				break
			}
			all, _, err := any.RangeSearch(FullRange())
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if len(all) != itemCount {
				t.Fatalf("step %d: %d items visible, want %d", step, len(all), itemCount)
			}
		}
	}
}

func TestRecoveryFromReplica(t *testing.T) {
	o, nodes, net := testOverlay(t, 8)
	for i := 0; i < 80; i++ {
		k := Key(float64(i) / 80)
		if _, err := nodes["peer-00"].Insert(Item{Key: k, Name: fmt.Sprintf("it-%d", i), Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	victim := "peer-04"
	lost := nodes[victim].NumItems()
	if lost == 0 {
		t.Fatal("victim holds no items; pick a different victim")
	}
	// Crash: no graceful handover.
	net.SetDown(victim, true)
	replacement := NewNode(net.Join(victim + "-replacement"))
	if err := o.Recover(victim, replacement); err != nil {
		t.Fatal(err)
	}
	delete(nodes, victim)
	nodes[victim+"-replacement"] = replacement
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatal(err)
	}
	if replacement.NumItems() != lost {
		t.Errorf("replacement restored %d items, want %d", replacement.NumItems(), lost)
	}
	all, _, err := nodes["peer-00"].RangeSearch(FullRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 80 {
		t.Errorf("items after recovery = %d, want 80", len(all))
	}
}

func TestBalanceAdjacent(t *testing.T) {
	o, nodes, _ := testOverlay(t, 4)
	// Pile all items into a narrow key band owned by one node.
	member := o.Members()[0]
	st := nodes[member].State()
	width := float64(st.R0.Hi - st.R0.Lo)
	for i := 0; i < 100; i++ {
		k := st.R0.Lo + Key(width*float64(i)/100)
		if _, err := nodes["peer-00"].Insert(Item{Key: k, Name: fmt.Sprintf("hot-%d", i), Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	before := nodes[member].NumItems()
	if before != 100 {
		t.Fatalf("setup: hot node has %d items", before)
	}
	shifts, err := o.BalanceAdjacent()
	if err != nil {
		t.Fatal(err)
	}
	if shifts == 0 {
		t.Fatal("no boundary shifts on a 100:0 imbalance")
	}
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatal(err)
	}
	after := nodes[member].NumItems()
	if after >= before {
		t.Errorf("hot node still holds %d items", after)
	}
	all, _, err := nodes["peer-01"].RangeSearch(FullRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 100 {
		t.Errorf("items after balancing = %d", len(all))
	}
}

// Equal item counts on both sides of the boundary: nothing to shift.
func TestBalanceEqualCountsShiftNoBoundary(t *testing.T) {
	o, nodes, _ := testOverlay(t, 2)
	for _, id := range o.Members() {
		r := nodes[id].State().R0
		for i := 0; i < 8; i++ {
			k := r.Lo + Key(float64(r.Hi-r.Lo)*float64(i+1)/10)
			if _, err := nodes[id].Insert(Item{Key: k, Name: fmt.Sprintf("%s-%d", id, i), Size: 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if shifts, err := o.BalanceAdjacent(); err != nil || shifts != 0 {
		t.Fatalf("count-balanced overlay shifted %d boundaries, err %v", shifts, err)
	}
}

func TestGlobalRebalanceRelocatesLeaf(t *testing.T) {
	o, nodes, _ := testOverlay(t, 7)
	// Overload one specific member heavily.
	hot := o.Members()[2]
	st := nodes[hot].State()
	width := float64(st.R0.Hi - st.R0.Lo)
	for i := 0; i < 200; i++ {
		k := st.R0.Lo + Key(width*float64(i)/200)
		if _, err := nodes["peer-00"].Insert(Item{Key: k, Name: fmt.Sprintf("hot-%d", i), Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := o.GlobalRebalance()
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("global rebalance did nothing on a 200:0 imbalance")
	}
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 7 {
		t.Errorf("size changed to %d", o.Size())
	}
	all, _, err := nodes["peer-00"].RangeSearch(FullRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 200 {
		t.Errorf("items after rebalance = %d", len(all))
	}
}

func TestMembersInKeyOrder(t *testing.T) {
	o, nodes, _ := testOverlay(t, 9)
	members := o.Members()
	if len(members) != 9 {
		t.Fatalf("members = %d", len(members))
	}
	var prev Key
	for i, id := range members {
		st := nodes[id].State()
		if i > 0 && st.R0.Lo != prev {
			t.Fatalf("member %s range not contiguous", id)
		}
		prev = st.R0.Hi
	}
	if prev != 1 {
		t.Errorf("last range ends at %v", prev)
	}
}

func TestRoutingTablesPopulated(t *testing.T) {
	_, nodes, _ := testOverlay(t, 15) // complete tree of depth 3
	// Level-3 nodes (8 leaves) should have routing tables with entries
	// at distances 1, 2, 4.
	deepest := 0
	for _, n := range nodes {
		st := n.State()
		if st.Level > deepest {
			deepest = st.Level
		}
	}
	if deepest != 3 {
		t.Fatalf("tree depth = %d, want 3 for 15 nodes", deepest)
	}
	for _, n := range nodes {
		st := n.State()
		if st.Level != 3 {
			continue
		}
		total := 0
		for _, e := range append(append([]RTEntry{}, st.LeftRT...), st.RightRT...) {
			if e.ID != "" {
				total++
			}
		}
		if total == 0 {
			t.Errorf("leaf %s (num %d) has empty routing tables", st.ID, st.Number)
		}
	}
}

func TestAddNodeDuplicateID(t *testing.T) {
	o, nodes, net := testOverlay(t, 2)
	_ = nodes
	dup := NewNode(net.Join("peer-00-dup"))
	if err := o.AddNode(dup); err != nil {
		t.Fatal(err)
	}
	if err := o.AddNode(dup); err == nil {
		t.Error("duplicate AddNode accepted")
	}
	if err := o.RemoveNode("ghost"); err == nil {
		t.Error("RemoveNode(ghost) succeeded")
	}
}
