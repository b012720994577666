package baton

import "bestpeer/internal/pnet"

// Register the overlay's message payloads for the TCP transport.
func init() {
	pnet.RegisterPayload(
		lookupReq{}, lookupResp{}, insertReq{}, deleteReq{}, opResp{},
		rangeReq{}, replicaPut{}, NodeState{}, KeyRange{},
		[]Item{}, Item{},
		int(0), "", [2]string{},
		repAck{},
	)
}
