package chord

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"p2prange/internal/metrics"
	"p2prange/internal/obs"
)

// Ref identifies a chord node: its ring position and its transport address.
// The zero Ref is "no node".
type Ref struct {
	ID   ID
	Addr string
}

// IsZero reports whether the Ref refers to no node.
func (r Ref) IsZero() bool { return r.Addr == "" }

// String formats the ref as id@addr.
func (r Ref) String() string { return string(r.Append(make([]byte, 0, 9+len(r.Addr)))) }

// Append appends String's text to dst: the ID as eight hex digits (as
// FmtID prints it), '@', then the address.
func (r Ref) Append(dst []byte) []byte {
	const hex = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hex[r.ID>>shift&0xf])
	}
	dst = append(dst, '@')
	return append(dst, r.Addr...)
}

// Errors returned by the protocol layer.
var (
	// ErrNoPredecessor indicates the queried node has no known predecessor
	// yet (a freshly joined node).
	ErrNoPredecessor = errors.New("chord: no predecessor")
	// ErrUnreachable indicates the transport could not reach the node.
	ErrUnreachable = errors.New("chord: node unreachable")
	// ErrNotFound indicates a lookup could not complete.
	ErrNotFound = errors.New("chord: lookup failed")
)

// Client is the RPC surface a node needs from its peers. Both the
// in-memory and TCP transports implement it; *Node itself implements the
// same operations locally (see Handler).
type Client interface {
	// Successor returns the target's current successor.
	Successor(addr string) (Ref, error)
	// Predecessor returns the target's predecessor, or ErrNoPredecessor.
	Predecessor(addr string) (Ref, error)
	// RouteTable returns the target's successor list and its routing
	// candidates (see Node.HandleRouteTable): everything one lookup hop
	// needs from it.
	RouteTable(addr string) (RouteTable, error)
	// FindSuccessor resolves the node owning id, recursing as needed.
	FindSuccessor(addr string, id ID) (Ref, error)
	// Notify tells the target that self may be its predecessor.
	Notify(addr string, self Ref) error
	// Ping checks liveness.
	Ping(addr string) error
	// SuccessorList returns the target's successor list, used to route
	// around a failed next hop.
	SuccessorList(addr string) ([]Ref, error)
}

// Handler is the server-side surface of a chord node, mirroring Client
// without the addressing. Transports dispatch incoming requests to it.
type Handler interface {
	HandleSuccessor() (Ref, error)
	HandlePredecessor() (Ref, error)
	HandleClosestPreceding(id ID) (Ref, error)
	HandleRouteTable() (RouteTable, error)
	HandleFindSuccessor(id ID) (Ref, error)
	HandleNotify(candidate Ref) error
	HandlePing() error
	HandleSuccessorList() ([]Ref, error)
}

// DefaultSuccessors is the successor-list length used when Config leaves
// it zero; it tolerates that many simultaneous adjacent failures.
const DefaultSuccessors = 8

// DefaultSuspectTTL is how long an unreachable node stays excluded from
// routing before it gets another chance. Long enough that one lookup
// never revisits a dead hop; short enough that a transient partition
// heals without restarting the node.
const DefaultSuspectTTL = 10 * time.Second

// Config parameterizes a Node.
type Config struct {
	// Successors is the successor-list length (default DefaultSuccessors).
	Successors int
	// DisableRerouting turns off failure-aware routing: lookups fail on
	// the first unreachable hop instead of routing around it via the
	// successor list. Used to quantify what fault tolerance buys.
	DisableRerouting bool
	// SuspectTTL is how long an unreachable node is excluded from routing
	// (default DefaultSuspectTTL; negative disables expiry-based reuse).
	SuspectTTL time.Duration
}

// Node is one chord peer's routing state. All methods are safe for
// concurrent use. A Node does not own any background goroutines; the
// Maintainer (maintain.go) drives stabilization for live deployments, and
// BuildStableRing (static.go) installs converged state for simulations.
type Node struct {
	ref     Ref
	client  Client
	nsucc   int
	reroute bool
	susTTL  time.Duration

	mu      sync.RWMutex
	pred    Ref
	fingers [M]Ref // fingers[k] = successor(ref.ID + 2^k)
	succs   []Ref  // successor list, succs[0] == fingers[0]

	// smu guards suspects separately from the routing state: marking a
	// node suspect happens on the lookup hot path and must not contend
	// with stabilization writes.
	smu      sync.Mutex
	suspects map[ID]time.Time // node ID -> expiry
}

// NewNode creates a node at addr (ring position HashAddr(addr)) that will
// reach other nodes through client. The node starts as a one-node ring:
// its own successor.
func NewNode(addr string, client Client, cfg Config) *Node {
	n := &Node{
		ref:      Ref{ID: HashAddr(addr), Addr: addr},
		client:   client,
		nsucc:    cfg.Successors,
		reroute:  !cfg.DisableRerouting,
		susTTL:   cfg.SuspectTTL,
		suspects: make(map[ID]time.Time),
	}
	if n.nsucc <= 0 {
		n.nsucc = DefaultSuccessors
	}
	if n.susTTL == 0 {
		n.susTTL = DefaultSuspectTTL
	}
	for k := range n.fingers {
		n.fingers[k] = n.ref
	}
	n.succs = []Ref{n.ref}
	return n
}

// Ref returns the node's identity.
func (n *Node) Ref() Ref { return n.ref }

// ID returns the node's ring position.
func (n *Node) ID() ID { return n.ref.ID }

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.ref.Addr }

// successor returns the current first successor.
func (n *Node) successor() Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.fingers[0]
}

// Successor returns the node's current successor (itself in a one-node
// ring).
func (n *Node) Successor() Ref { return n.successor() }

// Predecessor returns the node's predecessor and whether one is known.
func (n *Node) Predecessor() (Ref, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.pred, !n.pred.IsZero()
}

// SuccessorList returns a copy of the successor list.
func (n *Node) SuccessorList() []Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]Ref(nil), n.succs...)
}

// Successors returns up to k distinct successors, excluding this node
// itself and zero entries — the placement set replication writes to. On
// a ring smaller than k+1 nodes the result is shorter than k.
func (n *Node) Successors(k int) []Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Ref, 0, k)
	seen := make(map[ID]bool, k)
	for _, s := range n.succs {
		if len(out) >= k {
			break
		}
		if s.IsZero() || s.ID == n.ref.ID || seen[s.ID] {
			continue
		}
		seen[s.ID] = true
		out = append(out, s)
	}
	return out
}

// setSuccessor installs s as the first finger and head of the successor
// list.
func (n *Node) setSuccessor(s Ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fingers[0] = s
	if len(n.succs) == 0 {
		n.succs = []Ref{s}
	} else {
		n.succs[0] = s
	}
}

// FaultTolerant reports whether failure-aware rerouting is enabled.
func (n *Node) FaultTolerant() bool { return n.reroute }

// metChordSuspects counts suspect markings process-wide (Default
// registry), the live signal of how much churn routing is seeing.
// metMaintRPCs counts the client calls ring maintenance makes
// (Stabilize, the successor-list refresh, FixFinger and the
// FindSuccessor forwards it sets off, CheckPredecessor), so the
// protocol's own calls are transport.calls minus it.
var (
	metChordSuspects = metrics.Default.Counter("chord.suspects")
	metMaintRPCs     = metrics.Default.Counter("chord.maint_rpcs")
)

// MarkSuspect excludes a node from routing decisions until SuspectTTL
// elapses. Called when an RPC to the node fails at the transport level.
// A fresh suspicion (not a refresh of one still in effect) lands in the
// cluster event journal — the per-incident signal behind the
// chord.suspects counter.
func (n *Node) MarkSuspect(id ID) {
	if id == n.ref.ID {
		return
	}
	metChordSuspects.Inc()
	now := time.Now()
	n.smu.Lock()
	exp, known := n.suspects[id]
	fresh := !known || (n.susTTL >= 0 && now.After(exp))
	n.suspects[id] = now.Add(n.susTTL)
	n.smu.Unlock()
	if fresh {
		obs.Events.Emitf(obs.SevWarn, "chord", "%s suspects %08x: unreachable, excluded from routing", n.ref.Addr, id)
	}
}

// Suspect reports whether the node is currently excluded from routing.
func (n *Node) Suspect(id ID) bool {
	n.smu.Lock()
	defer n.smu.Unlock()
	return n.suspectLocked(id)
}

// suspectLocked is Suspect with smu held, forgetting an expired entry.
// It reads the clock only for a node it has an entry for.
func (n *Node) suspectLocked(id ID) bool {
	exp, ok := n.suspects[id]
	if !ok {
		return false
	}
	if n.susTTL >= 0 && time.Now().After(exp) {
		delete(n.suspects, id)
		return false
	}
	return true
}

// ForgetSuspects clears the suspect set, e.g. after a partition heals.
func (n *Node) ForgetSuspects() {
	n.smu.Lock()
	n.suspects = make(map[ID]time.Time)
	n.smu.Unlock()
}

// Owns reports whether identifier id falls in this node's arc
// (predecessor, self]. With no known predecessor a one-node ring owns
// everything.
func (n *Node) Owns(id ID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.pred.IsZero() {
		return true
	}
	return BetweenRightIncl(n.pred.ID, n.ref.ID, id)
}

// --- Handler implementation (server side of the protocol) ---

// HandleSuccessor implements Handler.
func (n *Node) HandleSuccessor() (Ref, error) { return n.successor(), nil }

// HandlePredecessor implements Handler.
func (n *Node) HandlePredecessor() (Ref, error) {
	if p, ok := n.Predecessor(); ok {
		return p, nil
	}
	return Ref{}, ErrNoPredecessor
}

// candidates appends to dst each routing candidate in closest-preceding
// order — fingers from M−1 down to 0, then the successor list from high
// to low — dropping zero entries, nodes currently suspected dead and
// repeats of the previous candidate. It is the one definition of that
// order: HandleClosestPreceding answers from it locally and
// HandleRouteTable ships it to remote lookups, so the two cannot drift.
func (n *Node) candidates(dst []Ref) []Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	n.smu.Lock()
	defer n.smu.Unlock()
	base := len(dst)
	add := func(r Ref) {
		if r.IsZero() || (len(dst) > base && dst[len(dst)-1] == r) || n.suspectLocked(r.ID) {
			return
		}
		dst = append(dst, r)
	}
	for k := M - 1; k >= 0; k-- {
		add(n.fingers[k])
	}
	for i := len(n.succs) - 1; i >= 0; i-- {
		add(n.succs[i])
	}
	return dst
}

// firstBetween returns the first of cands strictly between self and id,
// or self if none is: the closest-preceding choice.
func firstBetween(cands []Ref, self Ref, id ID) Ref {
	for _, r := range cands {
		if Between(self.ID, id, r.ID) {
			return r
		}
	}
	return self
}

// HandleClosestPreceding implements Handler: the highest live finger (or
// successor-list entry) strictly between this node and id, or this node
// if none is.
func (n *Node) HandleClosestPreceding(id ID) (Ref, error) {
	var buf [M + DefaultSuccessors]Ref
	return firstBetween(n.candidates(buf[:0]), n.ref, id), nil
}

// RouteTable is one node's routing state as a lookup hop reads it: the
// successor list, whose consecutive entries bound known ownership arcs,
// and the closest-preceding candidates, which pick the next hop when
// the identifier lies beyond the list.
type RouteTable struct {
	// Succs is the raw successor list in ring order. On a ring smaller
	// than the list it ends at the node itself.
	Succs []Ref
	// Cands are the routing candidates in closest-preceding scan order
	// (see candidates).
	Cands []Ref
}

// routeTable returns the node's route table, built into buf's storage.
func (n *Node) routeTable(buf []Ref) RouteTable {
	n.mu.RLock()
	buf = append(buf[:0], n.succs...)
	n.mu.RUnlock()
	k := len(buf)
	buf = n.candidates(buf)
	return RouteTable{Succs: buf[:k:k], Cands: buf[k:]}
}

// HandleRouteTable implements Handler: the successor list and the
// candidates, so a remote lookup reads both its ownership check and its
// next hop for any identifier from one round trip. Both share one
// allocation of exactly their size.
func (n *Node) HandleRouteTable() (RouteTable, error) {
	var buf [M + 2*DefaultSuccessors]Ref
	tbl := n.routeTable(buf[:0])
	k := len(tbl.Succs)
	out := make([]Ref, k+len(tbl.Cands))
	copy(out, tbl.Succs)
	copy(out[k:], tbl.Cands)
	return RouteTable{Succs: out[:k:k], Cands: out[k:]}, nil
}

// HandleFindSuccessor implements Handler: resolve the owner of id,
// delegating recursively through the ring.
func (n *Node) HandleFindSuccessor(id ID) (Ref, error) {
	succ := n.successor()
	if BetweenRightIncl(n.ref.ID, succ.ID, id) {
		return succ, nil
	}
	next, err := n.HandleClosestPreceding(id)
	if err != nil {
		return Ref{}, err
	}
	if next.ID == n.ref.ID {
		return succ, nil // we are the closest known; our successor owns id
	}
	metMaintRPCs.Inc()
	return n.client.FindSuccessor(next.Addr, id)
}

// HandleNotify implements Handler: candidate believes it may be our
// predecessor.
func (n *Node) HandleNotify(candidate Ref) error {
	if candidate.IsZero() || candidate.ID == n.ref.ID {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pred.IsZero() || Between(n.pred.ID, n.ref.ID, candidate.ID) {
		n.pred = candidate
	}
	return nil
}

// HandlePing implements Handler.
func (n *Node) HandlePing() error { return nil }

// HandleSuccessorList implements Handler.
func (n *Node) HandleSuccessorList() ([]Ref, error) {
	return n.SuccessorList(), nil
}

// Join makes the node join the ring that bootstrap belongs to. The node
// asks bootstrap to resolve the successor of its own ID and adopts it; the
// stabilization protocol then repairs predecessor links and fingers.
func (n *Node) Join(bootstrap string) error {
	succ, err := n.client.FindSuccessor(bootstrap, n.ref.ID)
	if err != nil {
		return fmt.Errorf("chord: join via %s: %w", bootstrap, err)
	}
	n.mu.Lock()
	n.pred = Ref{}
	n.mu.Unlock()
	n.setSuccessor(succ)
	return nil
}

// Stabilize runs one round of the stabilization protocol: verify the
// successor, adopt a closer one if its predecessor sits between us, and
// notify the successor of our existence. It also refreshes the successor
// list.
func (n *Node) Stabilize() error {
	succ := n.successor()
	if succ.ID == n.ref.ID {
		// Self-successor (bootstrap or collapsed ring): adopt our
		// predecessor, learned via Notify, as the successor.
		if p, ok := n.Predecessor(); ok && p.ID != n.ref.ID {
			n.setSuccessor(p)
			succ = p
		}
	}
	if succ.ID != n.ref.ID {
		metMaintRPCs.Inc()
		x, err := n.client.Predecessor(succ.Addr)
		switch {
		case err == nil && !x.IsZero() && Between(n.ref.ID, succ.ID, x.ID):
			metMaintRPCs.Inc()
			if n.client.Ping(x.Addr) == nil {
				succ = x
				n.setSuccessor(succ)
			}
		case err != nil && !errors.Is(err, ErrNoPredecessor):
			// Successor unreachable: fail over to the next live entry in
			// the successor list.
			if next, ok := n.failoverSuccessor(); ok {
				succ = next
			} else {
				return fmt.Errorf("chord: no live successor: %w", err)
			}
		}
	}
	if succ.ID != n.ref.ID {
		metMaintRPCs.Inc()
		if err := n.client.Notify(succ.Addr, n.ref); err != nil {
			return err
		}
	}
	n.refreshSuccessorList(succ)
	return nil
}

// failoverSuccessor promotes the first live entry of the successor list.
func (n *Node) failoverSuccessor() (Ref, bool) {
	for _, s := range n.SuccessorList()[1:] {
		if s.IsZero() || s.ID == n.ref.ID {
			continue
		}
		metMaintRPCs.Inc()
		if n.client.Ping(s.Addr) == nil {
			n.setSuccessor(s)
			return s, true
		}
	}
	// Last resort: become a one-node ring again.
	n.setSuccessor(n.ref)
	return n.ref, false
}

// refreshSuccessorList rebuilds the successor list by walking successors.
func (n *Node) refreshSuccessorList(head Ref) {
	list := make([]Ref, 0, n.nsucc)
	list = append(list, head)
	cur := head
	for len(list) < n.nsucc && cur.ID != n.ref.ID {
		metMaintRPCs.Inc()
		next, err := n.client.Successor(cur.Addr)
		if err != nil || next.IsZero() {
			break
		}
		if next.ID == head.ID {
			break // wrapped around a small ring
		}
		list = append(list, next)
		cur = next
	}
	n.mu.Lock()
	n.succs = list
	n.mu.Unlock()
}

// FixFinger refreshes finger k by resolving successor(n + 2^k).
func (n *Node) FixFinger(k uint) error {
	target := Add(n.ref.ID, k)
	ref, err := n.HandleFindSuccessor(target)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.fingers[k] = ref
	n.mu.Unlock()
	return nil
}

// CheckPredecessor clears the predecessor if it stopped responding.
func (n *Node) CheckPredecessor() {
	p, ok := n.Predecessor()
	if !ok {
		return
	}
	metMaintRPCs.Inc()
	if err := n.client.Ping(p.Addr); err != nil {
		n.mu.Lock()
		if n.pred.ID == p.ID {
			n.pred = Ref{}
		}
		n.mu.Unlock()
	}
}

// Leave hands the ring over gracefully: tells the successor to adopt our
// predecessor and the predecessor to adopt our successor. Data handoff is
// the storage layer's job.
func (n *Node) Leave() error {
	succ := n.successor()
	pred, hasPred := n.Predecessor()
	if succ.ID == n.ref.ID {
		return nil // one-node ring
	}
	if hasPred {
		if err := n.client.Notify(succ.Addr, pred); err != nil {
			return err
		}
	}
	return nil
}
