package bootstrap

import (
	"fmt"
	"strings"
	"time"
)

// RenderDashboard formats the collector's per-peer health table — the
// frame bptop redraws every tick. Pure function of its inputs so the
// layout is unit-testable without a network.
func RenderDashboard(healths []PeerHealth, now time.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %7s %8s %6s %8s %12s %10s %8s %6s %6s\n",
		"PEER", "HEALTH", "QPS", "P99", "ERR%", "RPCFAIL", "ROWS", "SHUFFLE", "QWAIT", "SHED%", "AGE")
	for _, h := range healths {
		fmt.Fprintf(&b, "%-16s %6.2f %7.1f %8s %5.1f%% %7.1f%% %12d %10s %8s %5.1f%% %6s\n",
			h.Peer,
			h.Score,
			h.QPS,
			shortDuration(time.Duration(h.P99QuerySeconds*float64(time.Second))),
			100*h.ErrorRate,
			100*h.RPCFailureRate,
			h.RowsScanned,
			humanBytes(h.ShuffleBytes),
			shortDuration(time.Duration(h.QueueWaitP95*float64(time.Second))),
			100*h.ServingShedRate,
			reportAge(h.LastReport, now))
	}
	if len(healths) == 0 {
		b.WriteString("(no peers have reported yet)\n")
	}
	return b.String()
}

// shortDuration renders a latency with ms/s units and no noise digits.
func shortDuration(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d < time.Second:
		return fmt.Sprintf("%.0fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// humanBytes renders a byte count with binary units.
func humanBytes(n int64) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	case n < 1<<30:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	}
}

// reportAge renders how stale a peer's last report is. A growing age is
// the liveness alarm: reports arrive even when a peer is idle, so only
// an unreachable (or wedged) peer ages.
func reportAge(last, now time.Time) string {
	if last.IsZero() {
		return "never"
	}
	age := now.Sub(last)
	if age < 0 {
		age = 0
	}
	switch {
	case age < time.Second:
		return fmt.Sprintf("%dms", age.Milliseconds())
	case age < time.Minute:
		return fmt.Sprintf("%.0fs", age.Seconds())
	default:
		return fmt.Sprintf("%.1fm", age.Minutes())
	}
}
