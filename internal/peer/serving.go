package peer

import (
	"bestpeer/internal/engine"
	"bestpeer/internal/serving"
)

// servingBackend adapts the peer's online query path to the serving
// tier's Backend interface.
type servingBackend struct {
	p *Peer
}

// ServeQuery implements serving.Backend.
func (b servingBackend) ServeQuery(sql, user, strategy string) (serving.Executed, error) {
	res, err := b.p.Query(sql, user, Strategy(strategy), engine.Options{})
	if err != nil {
		return serving.Executed{}, err
	}
	return serving.Executed{Result: res.Result, Engine: res.Engine, VTime: res.Cost.Total()}, nil
}

// StartServing attaches a serving tier to this peer's endpoint: the
// session verbs route through the admission queue and result cache into
// Query. Unset config fields default; the telemetry registry defaults
// to this peer's, so shedding reaches the collector. The version source
// does not: queries fan out, so only the caller can supply one that
// sees remote DML (Network.EnableServing passes the cluster-wide one),
// and without it the result cache is off.
func (p *Peer) StartServing(cfg serving.Config) *serving.Server {
	if cfg.Registry == nil {
		cfg.Registry = p.Metrics()
	}
	return serving.Attach(p.ep, servingBackend{p: p}, cfg)
}
