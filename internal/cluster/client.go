package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/randvar"
	"repro/internal/server"
	"repro/internal/stream"
)

// Client routes commands across a cluster: streams shard to primaries by
// rendezvous hash, join inputs co-locate, reads fan out to replicas, and
// ingest retries fail over with exactly-once semantics. It multiplexes
// every node's asynchronous DATA results onto one channel.
type Client struct {
	topo  *topo
	opts  server.DialOptions
	retry *server.Retrier // one id minter for every node: see ingest

	mu      sync.Mutex
	clients map[string]*server.Client
	closed  bool

	data     chan server.Data
	dataOnce sync.Once
	pumps    sync.WaitGroup
}

// NewClient builds a routing client over the given nodes. No connections
// are opened until the first command needs one. opts.Retries is how many
// extra attempts an ingest gets across the node's failover targets; every
// ingest carries a request id when it is above 0, so a retry whose
// original applied is answered from the dedup window — on the primary or
// on a promoted follower, which replicates the window.
func NewClient(nodes []Node, opts server.DialOptions) (*Client, error) {
	t, err := newTopo(nodes)
	if err != nil {
		return nil, err
	}
	o := opts.Normalize()
	return &Client{
		topo:    t,
		opts:    o,
		retry:   server.NewRetrier(o),
		clients: make(map[string]*server.Client),
		data:    make(chan server.Data, 1024),
	}, nil
}

// Data returns the merged stream of asynchronous query results from every
// node the client is subscribed on. Closed by Close.
func (c *Client) Data() <-chan server.Data { return c.data }

// Close closes every node connection and the Data channel.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	clients := make([]*server.Client, 0, len(c.clients))
	for _, cl := range c.clients {
		clients = append(clients, cl)
	}
	c.mu.Unlock()
	var first error
	for _, cl := range clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.pumps.Wait()
	c.dataOnce.Do(func() { close(c.data) })
	return first
}

// clientFor returns (dialing if needed) the connection to addr. Each
// node connection pumps its DATA results into the merged channel.
func (c *Client) clientFor(addr string) (*server.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("cluster: client closed")
	}
	if cl, ok := c.clients[addr]; ok {
		return cl, nil
	}
	// Per-node retries stay off: the routing layer owns retry policy (it
	// must be able to switch nodes between attempts).
	cl, err := server.DialOpts(addr, server.DialOptions{
		DialTimeout: c.opts.DialTimeout,
		OpTimeout:   c.opts.OpTimeout,
	})
	if err != nil {
		return nil, err
	}
	c.clients[addr] = cl
	c.pumps.Add(1)
	go func() {
		defer c.pumps.Done()
		for d := range cl.Data() {
			select {
			case c.data <- d:
			default:
				// A subscriber that stopped draining must not wedge every
				// node's read loop; dropping mirrors the server's own
				// slow-subscriber policy.
			}
		}
	}()
	return cl, nil
}

// dropClient discards a (likely broken) cached connection so the next
// attempt redials.
func (c *Client) dropClient(addr string, cl *server.Client) {
	c.mu.Lock()
	if c.clients[addr] == cl {
		delete(c.clients, addr)
	}
	c.mu.Unlock()
	cl.Close()
}

// RegisterStream registers a stream's schema on the node rendezvous
// hashing assigns it.
func (c *Client) RegisterStream(schema *stream.Schema) error {
	ddl := server.FormatStreamDef(schema)
	node := c.topo.registerStream(schema.Name, ddl)
	cl, err := c.clientFor(c.topo.primaryAddr(node))
	if err != nil {
		return err
	}
	_, err = cl.Do("STREAM " + ddl)
	return err
}

// Query registers a continuous query on the node owning its input
// stream(s), first re-homing clean stream groups so a join's inputs share
// a node. Results arrive on Data() once subscribed.
func (c *Client) Query(id, sqlText string) error {
	if strings.ContainsAny(id, " \n") {
		return fmt.Errorf("cluster: query id %q contains whitespace", id)
	}
	node, moves, err := c.topo.placeQuery(id, sqlText)
	if err != nil {
		return err
	}
	for _, mv := range moves {
		cl, err := c.clientFor(c.topo.primaryAddr(mv.node))
		if err != nil {
			return err
		}
		if _, err := cl.Do("STREAM " + mv.ddl); err != nil {
			return fmt.Errorf("cluster: re-homing stream %s for query %s: %w", mv.stream, id, err)
		}
	}
	cl, err := c.clientFor(c.topo.primaryAddr(node))
	if err != nil {
		return err
	}
	_, err = cl.Do("QUERY " + id + " " + sqlText)
	return err
}

// Insert pushes one tuple to the stream's node; returns the number of
// query results it produced.
func (c *Client) Insert(streamName string, fields ...randvar.Field) (int, error) {
	payload, err := c.ingest(streamName, server.FormatInsert(streamName, fields...))
	if err != nil {
		return 0, err
	}
	return server.ParseInsertReply(payload), nil
}

// InsertBatch pushes several tuples in one round trip to the stream's
// node; returns the number of query results the batch produced.
func (c *Client) InsertBatch(streamName string, rows ...[]randvar.Field) (int, error) {
	line, err := server.FormatInsertBatch(streamName, rows...)
	if err != nil {
		return 0, err
	}
	payload, err := c.ingest(streamName, line)
	if err != nil {
		return 0, err
	}
	return server.ParseInsertReply(payload), nil
}

// ingest routes one INSERT/INSERTBATCH line through the failover walk. The
// line gets a request id whenever retries are enabled, minted once per
// request by the client's one Retrier: a promoted replica's dedup window
// holds the ids its primary saw, so a counter per node would re-issue them
// and a new request would be answered from the window instead of applied.
func (c *Client) ingest(streamName, line string) (string, error) {
	node, ok := c.topo.streamNode(streamName)
	if !ok {
		return "", fmt.Errorf("cluster: stream %s not registered", streamName)
	}
	c.topo.markDirty(streamName)
	if c.opts.Retries > 0 {
		line += " @" + c.retry.NextReqID()
	}
	return walkFailover(c.topo.failoverAddrs(node), c.opts.Retries+1, c.retry, func(addr string) (string, error) {
		cl, err := c.clientFor(addr)
		if err != nil {
			return "", err
		}
		payload, err := cl.Do(line)
		var se server.ServerError
		if err != nil && !errors.As(err, &se) {
			// The connection is suspect: drop it so the next attempt
			// (possibly back on this address) redials.
			c.dropClient(addr, cl)
		}
		return payload, err
	})
}

// Stats fetches a query's counters from a replica of its node (bounded
// staleness; the primary serves it when the node has no replicas).
func (c *Client) Stats(id string) (core.QueryStats, error) {
	cl, err := c.readClient(id)
	if err != nil {
		return core.QueryStats{}, err
	}
	return cl.Stats(id)
}

// QueryMetrics fetches a query's rolling accuracy metrics from a replica.
func (c *Client) QueryMetrics(id string) (server.QueryMetrics, error) {
	cl, err := c.readClient(id)
	if err != nil {
		return server.QueryMetrics{}, err
	}
	return cl.QueryMetrics(id)
}

// Explain fetches a query's plan from a replica.
func (c *Client) Explain(id string) (string, error) {
	cl, err := c.readClient(id)
	if err != nil {
		return "", err
	}
	return cl.Explain(id)
}

// Subscribe attaches to a query's result feed on a replica of its node;
// results arrive on Data().
func (c *Client) Subscribe(id string) error {
	cl, err := c.readClient(id)
	if err != nil {
		return err
	}
	return cl.Subscribe(id)
}

// CloseQuery deregisters a query on its primary.
func (c *Client) CloseQuery(id string) error {
	node, ok := c.topo.queryNode(id)
	if !ok {
		return fmt.Errorf("cluster: unknown query %s", id)
	}
	cl, err := c.clientFor(c.topo.primaryAddr(node))
	if err != nil {
		return err
	}
	if err := cl.CloseQuery(id); err != nil {
		return err
	}
	c.topo.dropQuery(id)
	return nil
}

func (c *Client) readClient(queryID string) (*server.Client, error) {
	node, ok := c.topo.queryNode(queryID)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown query %s", queryID)
	}
	return c.clientFor(c.topo.readAddr(node))
}
