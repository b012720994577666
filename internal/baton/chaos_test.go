package baton

import (
	"errors"
	"fmt"
	"testing"

	"bestpeer/internal/pnet"
)

// chaosSeed keeps every fault decision in this file reproducible.
const chaosSeed = 42

// totalItems sums the items held across all nodes.
func totalItems(nodes map[string]*Node) int {
	total := 0
	for _, n := range nodes {
		total += n.NumItems()
	}
	return total
}

// skewOverlay loads items concentrated in one node's subdomain so a
// BalanceAdjacent pass has a boundary shift to perform. Returns the
// overloaded node's ID.
func skewOverlay(t *testing.T, o *Overlay, nodes map[string]*Node) string {
	t.Helper()
	// Pick any node and synthesize keys inside its current range.
	var heavy *Node
	for _, n := range nodes {
		heavy = n
		break
	}
	r := heavy.State().R0
	span := float64(r.Hi - r.Lo)
	for i := 0; i < 40; i++ {
		k := r.Lo + Key(span*float64(i+1)/42)
		if _, err := heavy.Insert(Item{Key: k, Name: fmt.Sprintf("it-%02d", i), Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	return heavy.ID()
}

// TestChaosPartitionAbortsRestructuring: a partition separating the
// coordinator from part of the overlay makes a balancing pass fail
// fast with a typed error — and the structural invariants (contiguous
// ranges, items inside their node's subdomain) hold afterwards, so a
// healed network balances cleanly on the next pass.
func TestChaosPartitionAbortsRestructuring(t *testing.T) {
	o, nodes, net := testOverlay(t, 6)
	heavy := skewOverlay(t, o, nodes)
	before := totalItems(nodes)

	// Sever the heavy node from the coordinator (and everyone else).
	var rest []string
	for id := range nodes {
		if id != heavy {
			rest = append(rest, id)
		}
	}
	net.SetFaultPlan(pnet.NewFaultPlan(chaosSeed).
		Partition(append(rest, "@overlay"), []string{heavy}))

	_, err := o.BalanceAdjacent()
	if err == nil {
		t.Fatal("balancing across a partition succeeded")
	}
	if !pnet.Unavailable(err) {
		t.Fatalf("err = %v, want an unavailability error", err)
	}
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatalf("invariants broken by aborted restructuring: %v", err)
	}
	if got := totalItems(nodes); got != before {
		t.Fatalf("items = %d after aborted restructuring, want %d", got, before)
	}

	// Heal: the deferred balancing completes and invariants still hold.
	net.SetFaultPlan(nil)
	shifts, err := o.BalanceAdjacent()
	if err != nil {
		t.Fatal(err)
	}
	if shifts == 0 {
		t.Error("no boundary shifts after healing a skewed overlay")
	}
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatal(err)
	}
	if got := totalItems(nodes); got != before {
		t.Fatalf("items = %d after healed rebalance, want %d", got, before)
	}
}

// TestChaosMoveRangeRestoresOnDeliveryFailure: regression for the
// item-loss bug this suite flushed out. moveRange extracts items
// destructively, then delivers them; when delivery fails (receiver
// partitioned away between the load probe and the transfer), the
// extracted items must be restored to the source — not stranded in the
// coordinator's stack frame.
func TestChaosMoveRangeRestoresOnDeliveryFailure(t *testing.T) {
	o, nodes, net := testOverlay(t, 6)
	heavy := skewOverlay(t, o, nodes)
	before := totalItems(nodes)

	// Fail only the transfer verb: the balance pass probes loads and
	// extracts successfully, then the hand-off to every receiver dies.
	plan := pnet.NewFaultPlan(chaosSeed)
	for id := range nodes {
		if id != heavy {
			plan.Error(id, msgAccept, 1)
		}
	}
	net.SetFaultPlan(plan)

	_, err := o.BalanceAdjacent()
	if err == nil {
		t.Fatal("balancing with dead receivers succeeded")
	}
	if !errors.Is(err, pnet.ErrFaultInjected) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	// The decisive assertions: nothing lost, nothing misplaced.
	if got := totalItems(nodes); got != before {
		t.Fatalf("items = %d after failed transfer, want %d (items stranded)", got, before)
	}
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatalf("invariants broken by failed transfer: %v", err)
	}

	net.SetFaultPlan(nil)
	if _, err := o.BalanceAdjacent(); err != nil {
		t.Fatal(err)
	}
	if got := totalItems(nodes); got != before {
		t.Fatalf("items = %d after healed rebalance, want %d", got, before)
	}
	if err := o.CheckInvariants(nodes); err != nil {
		t.Fatal(err)
	}
}

// TestChaosLookupRetriesThroughDrops: BATON lookups are idempotent and
// registered as such, so a lossy link degrades throughput, not
// correctness — every lookup either finds the item or fails typed,
// and with retries most succeed.
func TestChaosLookupRetriesThroughDrops(t *testing.T) {
	o, nodes, net := testOverlay(t, 4)
	_ = o
	var any *Node
	for _, n := range nodes {
		any = n
		break
	}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("doc-%02d", i)
		if _, err := any.Insert(Item{Key: StringKey(name), Name: name, Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	net.SetCallPolicy(pnet.CallPolicy{MaxAttempts: 4, Backoff: 1})
	plan := pnet.NewFaultPlan(chaosSeed)
	for id := range nodes {
		plan.Drop(id, msgLookup, 0.3)
	}
	net.SetFaultPlan(plan)

	found := 0
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("doc-%02d", i)
		items, _, err := any.Lookup(name)
		if err != nil {
			if !pnet.Unavailable(err) {
				t.Fatalf("lookup %s: untyped failure %v", name, err)
			}
			continue
		}
		if len(items) != 1 || items[0].Name != name {
			t.Fatalf("lookup %s = %v", name, items)
		}
		found++
	}
	// drop=0.3 per hop with 4 attempts: the vast majority must land.
	if found < 10 {
		t.Fatalf("found %d/16 items through a lossy link with retries", found)
	}
}
