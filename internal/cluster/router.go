package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"dpd/internal/client"
)

// Router is the cluster-aware ingest client: it fetches the routing
// table from any member's HTTP plane, keeps one resilient client per
// owner, fans each batch to its key's owner, and preserves the
// exactly-once contract across migration and failover:
//
//   - A wrong-node rejection voids the key on that connection and
//     rescues its windowed samples as an orphan (client.Orphan); the
//     router refetches the table up to the rejection's epoch, asks the
//     new owner for the stream's applied cursor, trims the orphan to
//     the unapplied suffix, aligns the connection's numbering with
//     PresetCursor, and resends — migrated pre-history is never
//     double-fed, unapplied samples are never dropped.
//   - A connection whose retry budget runs out declares its member
//     dead: the router asks any survivor to fail the member over
//     (POST /cluster/failover), abandons the connection — rescuing its
//     entire unacknowledged window as orphans — and replays each
//     orphan to its new owner under the same cursor handshake.
//
// A Router is not safe for concurrent use, mirroring client.Client;
// give each sending goroutine its own Router.
type Router struct {
	cfg   RouterConfig
	table *Table
	conns map[string]*client.Client
	// pending maps a voided key to the member name of the connection
	// holding its orphan, filled by each connection's OnWrongNode hook.
	pending map[uint64]string
	hc      *http.Client
	// tr is the router's own HTTP transport: not shared with the
	// process default, so Close can drop its pooled connections without
	// leaving half-open sockets on member control planes.
	tr    *http.Transport
	stats RouterStats
	// closedStats accumulates the counters of connections that were
	// closed or abandoned, so Stats never loses their history.
	closedStats client.Stats
	closed      bool
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// HTTPAddrs are bootstrap HTTP addresses of one or more cluster
	// members; the routing table is fetched from the first that answers.
	HTTPAddrs []string
	// Client is the per-connection template. Addr and OnWrongNode are
	// set by the router; everything else (window, ack mode, budget,
	// backoff, OnEvent, Logf) applies to every connection.
	Client client.Config
	// FetchBudget bounds how long the router keeps polling for a table
	// of a required epoch during a redirect; 0 selects the client retry
	// budget (or its 30s default).
	FetchBudget time.Duration
	// Logf receives routing log lines; nil discards them.
	Logf func(format string, args ...any)
}

// RouterStats counts the router's own work; per-connection transport
// counters are aggregated in Client.
type RouterStats struct {
	// Redirects counts orphans replayed to a new owner (migration or
	// failover rescues).
	Redirects uint64
	// ReplayedSamples counts orphan samples resent to a new owner.
	ReplayedSamples uint64
	// TrimmedSamples counts orphan samples dropped because the new
	// owner's cursor proved them already applied.
	TrimmedSamples uint64
	// Failovers counts members this router declared dead.
	Failovers uint64
	// TableFetches counts routing-table fetch sweeps.
	TableFetches uint64
	// Client is the sum of every connection's client.Stats, including
	// closed and abandoned connections.
	Client client.Stats
}

// maxRouteAttempts bounds the reroute loop of one batch: each attempt
// is a redirect chase or a failover, so hitting the bound means the
// cluster is reshaping faster than the router can follow.
const maxRouteAttempts = 16

// DialRouter fetches the routing table from cfg.HTTPAddrs and returns
// a ready router. Connections to owners are dialed lazily on first
// send.
func DialRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.HTTPAddrs) == 0 {
		return nil, errors.New("cluster: RouterConfig.HTTPAddrs is required")
	}
	if cfg.FetchBudget <= 0 {
		if cfg.Client.RetryBudget > 0 {
			cfg.FetchBudget = cfg.Client.RetryBudget
		} else {
			cfg.FetchBudget = 30 * time.Second
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	to := cfg.Client.DialTimeout
	if to <= 0 {
		to = 5 * time.Second
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	r := &Router{
		cfg:     cfg,
		conns:   make(map[string]*client.Client),
		pending: make(map[uint64]string),
		hc:      &http.Client{Timeout: to, Transport: tr},
		tr:      tr,
	}
	if err := r.refetch(0); err != nil {
		return nil, err
	}
	return r, nil
}

// Table returns the router's current routing table.
func (r *Router) Table() *Table { return r.table }

// Stats returns the router's counters with per-connection transport
// stats summed in.
func (r *Router) Stats() RouterStats {
	s := r.stats
	s.Client = r.closedStats
	for _, c := range r.conns {
		addStats(&s.Client, c.Stats())
	}
	return s
}

// addStats accumulates b into a.
func addStats(a *client.Stats, b client.Stats) {
	a.Dials += b.Dials
	a.Reconnects += b.Reconnects
	a.ReplayedBatches += b.ReplayedBatches
	a.ReplayedSamples += b.ReplayedSamples
	a.OverloadBackoffs += b.OverloadBackoffs
	a.ProtocolErrors += b.ProtocolErrors
	a.SentBatches += b.SentBatches
	a.SentSamples += b.SentSamples
	a.WrongNodeRedirects += b.WrongNodeRedirects
}

// Close gracefully closes every connection. Call Barrier first when
// the run's accounting matters.
func (r *Router) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var first error
	for name, c := range r.conns {
		addStats(&r.closedStats, c.Stats())
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		delete(r.conns, name)
	}
	r.tr.CloseIdleConnections()
	return first
}

// SendEvents routes one event batch for key to its owner, following
// redirects and failing over dead members as needed.
func (r *Router) SendEvents(key uint64, values []int64) error {
	return r.send(key, values, nil)
}

// SendMagnitudes routes one magnitude batch for key under the same
// contract as SendEvents.
func (r *Router) SendMagnitudes(key uint64, values []float64) error {
	return r.send(key, nil, values)
}

// send is the routing fan-out: pick the owner from the table, send,
// and on rejection or death chase the cluster's new shape.
func (r *Router) send(key uint64, evs []int64, mags []float64) error {
	if r.closed {
		return client.ErrClosed
	}
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		owner := r.table.Owner(key)
		c, err := r.conn(owner)
		if err != nil {
			if ferr := r.failover(owner.Name); ferr != nil {
				return ferr
			}
			continue
		}
		if mags != nil {
			err = c.SendMagnitudes(key, mags)
		} else {
			err = c.SendEvents(key, evs)
		}
		var re *client.RedirectError
		switch {
		case err == nil:
			if len(r.pending) != 0 {
				if derr := r.drain(); derr != nil {
					return derr
				}
			}
			return nil
		case errors.As(err, &re):
			// The batch was refused before entering the window; replay the
			// key's rescued orphan to the new owner, then retry this batch.
			if derr := r.drain(); derr != nil {
				return derr
			}
			if re.Epoch > r.table.Epoch {
				if ferr := r.refetch(re.Epoch); ferr != nil {
					return ferr
				}
			} else if re.Epoch < r.table.Epoch {
				// The member rejected under an older epoch than the router
				// holds — typically a member that restarted empty and
				// accepts nothing until it has a table. Offer it ours.
				r.pushTable(owner)
			}
		case errors.Is(err, client.ErrBudget):
			if ferr := r.failover(owner.Name); ferr != nil {
				return ferr
			}
		default:
			return err
		}
	}
	return fmt.Errorf("cluster: key %d unroutable after %d attempts", key, maxRouteAttempts)
}

// Barrier blocks until every batch handed to the router is applied by
// the node that owns its stream — draining redirect orphans that
// surface along the way — and recovers failovers like send does.
func (r *Router) Barrier() error {
	if r.closed {
		return client.ErrClosed
	}
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		names := make([]string, 0, len(r.conns))
		for name := range r.conns {
			names = append(names, name)
		}
		clean := true
		for _, name := range names {
			c := r.conns[name]
			if c == nil {
				continue
			}
			if err := c.Barrier(); err != nil {
				if errors.Is(err, client.ErrBudget) {
					if ferr := r.failover(name); ferr != nil {
						return ferr
					}
					clean = false
					break
				}
				return err
			}
		}
		if len(r.pending) != 0 {
			if err := r.drain(); err != nil {
				return err
			}
			clean = false
		}
		if clean {
			return nil
		}
	}
	return fmt.Errorf("cluster: barrier unsettled after %d passes", maxRouteAttempts)
}

// conn returns (dialing if needed) the connection to member m.
func (r *Router) conn(m Member) (*client.Client, error) {
	if c := r.conns[m.Name]; c != nil {
		return c, nil
	}
	ccfg := r.cfg.Client
	ccfg.Addr = m.Ingest
	ccfg.Seed ^= nameHash(m.Name)
	name := m.Name
	onWrong := r.cfg.Client.OnWrongNode
	ccfg.OnWrongNode = func(key, epoch uint64, owner string) {
		r.pending[key] = name
		if onWrong != nil {
			onWrong(key, epoch, owner)
		}
	}
	c, err := client.Dial(ccfg)
	if err != nil {
		return nil, err
	}
	r.conns[m.Name] = c
	return c, nil
}

// drain replays every pending orphan to its stream's current owner.
func (r *Router) drain() error {
	for len(r.pending) != 0 {
		var key uint64
		var from string
		for k, m := range r.pending {
			key, from = k, m
			break
		}
		delete(r.pending, key)
		c := r.conns[from]
		if c == nil {
			continue
		}
		o, ok := c.TakeOrphan(key)
		if !ok {
			continue
		}
		if err := r.replayOrphan(key, o); err != nil {
			return err
		}
	}
	return nil
}

// replayOrphan delivers one rescued orphan to the key's current owner
// exactly once: query the owner's applied cursor, trim the prefix the
// cursor proves applied, align the connection's numbering to the
// cursor, send the suffix. The cursor handshake makes the replay safe
// against both directions of skew: migrated pre-history (cursor ahead
// of the orphan) trims to nothing, replication lag after a failover
// (cursor behind) replays the whole orphan against the replica's
// shorter history.
func (r *Router) replayOrphan(key uint64, o client.Orphan) error {
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		if o.Epoch > r.table.Epoch {
			if err := r.refetch(o.Epoch); err != nil {
				return err
			}
		}
		owner := r.table.Owner(key)
		if o.Epoch < r.table.Epoch {
			// The newest rejection carried an epoch below the router's
			// table — epoch 0 is a member with no table at all. Heal the
			// owner before the cursor handshake, not after the replay
			// bounces: a rejected send still advances this connection's
			// sample numbering, and a retrim against the owner's cursor
			// after that drift would replay the wrong suffix.
			r.pushTable(owner)
		}
		c, err := r.conn(owner)
		if err != nil {
			if ferr := r.failover(owner.Name); ferr != nil {
				return ferr
			}
			continue
		}
		applied, err := c.QueryCursor(key)
		if err != nil {
			if errors.Is(err, client.ErrBudget) {
				if ferr := r.failover(owner.Name); ferr != nil {
					return ferr
				}
				continue
			}
			return err
		}
		n := uint64(len(o.Evs) + len(o.Mags))
		trim := uint64(0)
		if applied > o.Start {
			trim = applied - o.Start
			if trim > n {
				trim = n
			}
		}
		c.PresetCursor(key, applied)
		r.stats.TrimmedSamples += trim
		if trim == n {
			r.stats.Redirects++
			return nil
		}
		if o.IsMag {
			err = c.SendMagnitudes(key, o.Mags[trim:])
		} else {
			err = c.SendEvents(key, o.Evs[trim:])
		}
		var re *client.RedirectError
		switch {
		case err == nil:
			r.stats.Redirects++
			r.stats.ReplayedSamples += n - trim
			return nil
		case errors.As(err, &re):
			// Refused: the key was voided on this connection between the
			// cursor handshake and the send (the cluster moved again). Any
			// samples this connection already carried for the key were
			// rescued into its orphan; splice our unsent suffix after them
			// and chase the new epoch.
			if o2, ok := c.TakeOrphan(key); ok {
				if len(o2.Evs) == 0 && len(o2.Mags) == 0 {
					o2.Start, o2.IsMag = o.Start+trim, o.IsMag
				}
				o2.Evs = append(o2.Evs, o.Evs[trim:]...)
				o2.Mags = append(o2.Mags, o.Mags[trim:]...)
				o2.Epoch, o2.Owner = re.Epoch, re.Owner
				o = o2
			} else {
				o.Epoch = re.Epoch
			}
			if re.Epoch < r.table.Epoch {
				// Rejected under an older epoch: the owner is a member that
				// restarted without a table. Heal it so the next attempt
				// lands instead of burning the attempt budget.
				r.pushTable(owner)
			}
		case errors.Is(err, client.ErrBudget):
			if ferr := r.failover(owner.Name); ferr != nil {
				return ferr
			}
		default:
			return err
		}
	}
	return fmt.Errorf("cluster: orphan for key %d undeliverable after %d attempts", key, maxRouteAttempts)
}

// pushTable offers the router's table to a member that proved to be
// behind it (a wrong-node rejection under a lower epoch). Best-effort:
// node-to-node gossip heals the same gap on its own cadence, this just
// closes it before the router's next attempt.
func (r *Router) pushTable(m Member) {
	if m.HTTP == "" || r.table == nil {
		return
	}
	body, err := json.Marshal(r.table)
	if err != nil {
		return
	}
	resp, err := r.hc.Post("http://"+m.HTTP+"/cluster/table", "application/json", bytes.NewReader(body))
	if err != nil {
		r.cfg.Logf("cluster: table push to %q: %v", m.Name, err)
		return
	}
	resp.Body.Close()
}

// failover declares member dead: ask any survivor to remove it from
// the table, adopt the survivor's new table, abandon the dead
// connection and replay every rescued orphan to its new owner. When a
// survivor finds the member still alive (412), the table stays and the
// member is not dead: only its stalled connection is abandoned, and
// the orphans replay to the same member over a fresh connection with a
// fresh retry budget, deduplicated by the cursor handshake.
func (r *Router) failover(dead string) error {
	r.cfg.Logf("cluster: router declaring %q dead", dead)
	var next *Table
	alive := false
	for _, m := range r.table.Members {
		if m.Name == dead || m.HTTP == "" {
			continue
		}
		resp, err := r.hc.Post("http://"+m.HTTP+"/cluster/failover?node="+url.QueryEscape(dead), "application/json", nil)
		if err != nil {
			continue
		}
		var t Table
		derr := json.NewDecoder(resp.Body).Decode(&t)
		resp.Body.Close()
		if resp.StatusCode == http.StatusPreconditionFailed {
			alive = true
			break
		}
		if derr == nil && resp.StatusCode == http.StatusOK {
			next = &t
			break
		}
	}
	switch {
	case alive:
		r.cfg.Logf("cluster: %q is alive; reconnecting to it", dead)
	case next == nil:
		return fmt.Errorf("cluster: no surviving member accepted failover of %q", dead)
	default:
		r.stats.Failovers++
		if next.Epoch >= r.table.Epoch {
			r.table = next
		}
	}
	c := r.conns[dead]
	if c == nil {
		return nil
	}
	delete(r.conns, dead)
	addStats(&r.closedStats, c.Stats())
	orphans := c.Abandon()
	// Pending entries pointing at the dead connection are covered by the
	// abandon rescue (it merges prior wrong-node orphans).
	for k, m := range r.pending {
		if m == dead {
			delete(r.pending, k)
		}
	}
	for k, o := range orphans {
		if err := r.replayOrphan(k, o); err != nil {
			return err
		}
	}
	return nil
}

// refetch sweeps every known HTTP plane (current members first, then
// the bootstrap list) for the highest-epoch routing table, polling
// until one with epoch ≥ minEpoch appears or the fetch budget runs
// out. minEpoch 0 accepts any table.
func (r *Router) refetch(minEpoch uint64) error {
	deadline := time.Now().Add(r.cfg.FetchBudget)
	for {
		r.stats.TableFetches++
		best := r.table
		try := func(addr string) {
			resp, err := r.hc.Get("http://" + addr + "/cluster/route")
			if err != nil {
				return
			}
			var t Table
			derr := json.NewDecoder(resp.Body).Decode(&t)
			resp.Body.Close()
			if derr != nil || resp.StatusCode != http.StatusOK {
				return
			}
			if best == nil || t.Epoch > best.Epoch {
				best = &t
			}
		}
		if r.table != nil {
			for _, m := range r.table.Members {
				if m.HTTP != "" {
					try(m.HTTP)
				}
			}
		}
		for _, addr := range r.cfg.HTTPAddrs {
			try(addr)
		}
		if best != nil && best.Epoch >= minEpoch {
			r.table = best
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: no routing table of epoch ≥ %d within %v", minEpoch, r.cfg.FetchBudget)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
