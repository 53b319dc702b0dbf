// Package netsim models a switched cluster interconnect — the paper's
// testbed used gigabit Ethernet over copper — on top of the DES kernel.
//
// Each node owns a full-duplex network interface. A message from A to B
// serializes on A's transmit side (back-to-back sends from one node queue at
// its NIC), crosses the switch after a fixed latency, serializes on B's
// receive side (modelling incast: many clients writing to one server contend
// for the server's ingress), and is then delivered to the mailbox listening
// on the destination port. Per-message software overhead and frame headers
// make small messages proportionally expensive, which is one of the two
// mechanisms behind the paper's bandwidth-versus-blocksize curves.
package netsim

import (
	"fmt"
	"sort"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Config fixes the interconnect's physical parameters.
type Config struct {
	BandwidthBps  float64      // per-direction link bandwidth, bytes/second
	Latency       sim.Duration // one-way propagation + switch latency
	FrameOverhead int64        // header bytes added to every message
	PerMessageCPU sim.Duration // software send/receive cost per message
}

// GigabitEthernet returns parameters approximating the paper's testbed
// interconnect: 1 Gb/s links, ~60 µs one-way latency through the switch,
// Ethernet+IP+TCP framing, and a small per-message software cost.
func GigabitEthernet() Config {
	return Config{
		BandwidthBps:  125e6, // 1 Gb/s
		Latency:       60 * sim.Microsecond,
		FrameOverhead: 66,
		PerMessageCPU: 8 * sim.Microsecond,
	}
}

// Message is one unit of transfer between nodes.
type Message struct {
	From    string
	To      string
	Port    int
	Size    int64 // payload bytes (framing added by the network)
	Payload any

	// Span is the causal span the message travels under: the sender's
	// current span (stamped automatically by Send/Call, explicitly by the
	// event-chain variants). When the server-side tracepoint is armed,
	// delivery records a ClassNetMsg child span and rewrites this field to
	// it, so the receiver's records parent to the network hop.
	Span uint64
}

// Iface is one node's network interface. The tx/rx resources are embedded
// by value (slab-friendly: a 65536-node network allocates interfaces in
// large chunks instead of three objects per node) and the node's listening
// ports live in a small inline table — nodes listen on one or two ports
// (the PFS service port, one MPI rank port), so a linear scan beats a
// per-node map.
type Iface struct {
	name  string
	tx    sim.Resource
	rx    sim.Resource
	ports []portEntry

	// Stats, observable by analysis tooling.
	BytesSent     int64
	BytesReceived int64
	MsgsSent      int64
	MsgsReceived  int64
}

// portEntry binds one listening port to its mailbox.
type portEntry struct {
	port int
	box  *sim.Mailbox[Message]
}

// box returns the mailbox listening on port, or nil.
func (i *Iface) box(port int) *sim.Mailbox[Message] {
	for _, e := range i.ports {
		if e.port == port {
			return e.box
		}
	}
	return nil
}

// arenaChunk is the slab size for interface and mailbox arenas: large
// enough to amortize allocation at 65536 nodes, small enough not to waste
// memory on unit-test networks.
const arenaChunk = 256

// Network connects named nodes through a single switch.
type Network struct {
	env    *sim.Env
	cfg    Config
	ifaces map[string]*Iface

	// Construction arenas: interfaces and mailboxes are handed out from
	// chunked slabs (pointers into a chunk stay valid because a chunk is
	// never grown, only replaced when full).
	ifaceArena []Iface
	boxArena   []sim.Mailbox[Message]

	tp trace.Point // one ClassNetMsg record per message delivery
}

// Tracepoint returns the deployment's server-side tracepoint, shared by the
// network, the PFS servers built on it and their disk arrays.
func (n *Network) Tracepoint() *trace.Point { return &n.tp }

// New returns an empty network with the given configuration.
func New(env *sim.Env, cfg Config) *Network {
	if cfg.BandwidthBps <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	return &Network{
		env:    env,
		cfg:    cfg,
		ifaces: make(map[string]*Iface),
	}
}

// Env returns the owning simulation environment.
func (n *Network) Env() *sim.Env { return n.env }

// Config returns the interconnect parameters.
func (n *Network) Config() Config { return n.cfg }

// AddNode registers a node name and returns its interface. Adding the same
// name twice is an error caught by panic (configuration bug).
func (n *Network) AddNode(name string) *Iface {
	if _, dup := n.ifaces[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	if len(n.ifaceArena) == cap(n.ifaceArena) {
		n.ifaceArena = make([]Iface, 0, arenaChunk)
	}
	n.ifaceArena = append(n.ifaceArena, Iface{name: name})
	ifc := &n.ifaceArena[len(n.ifaceArena)-1]
	ifc.tx.Init(n.env, 1)
	ifc.rx.Init(n.env, 1)
	n.ifaces[name] = ifc
	return ifc
}

// Iface returns the interface of a registered node.
func (n *Network) Iface(name string) *Iface {
	ifc, ok := n.ifaces[name]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown node %q", name))
	}
	return ifc
}

// Listen returns (creating if needed) the mailbox for (node, port). Layered
// protocols — the parallel file system, MPI — each claim a port.
func (n *Network) Listen(node string, port int) *sim.Mailbox[Message] {
	ifc, ok := n.ifaces[node]
	if !ok {
		panic(fmt.Sprintf("netsim: Listen on unknown node %q", node))
	}
	if mb := ifc.box(port); mb != nil {
		return mb
	}
	if len(n.boxArena) == cap(n.boxArena) {
		n.boxArena = make([]sim.Mailbox[Message], 0, arenaChunk)
	}
	n.boxArena = append(n.boxArena, sim.Mailbox[Message]{})
	mb := &n.boxArena[len(n.boxArena)-1]
	mb.Init(n.env)
	ifc.ports = append(ifc.ports, portEntry{port: port, box: mb})
	return mb
}

// mtuPayload is the payload capacity of one frame (standard Ethernet MTU
// minus IP+TCP headers).
const mtuPayload = 1460

// wireBytes is the on-wire size of a message including framing: one frame
// per started MTU payload (ceiling division — an exact multiple of 1460 must
// not be charged an extra empty frame), minimum one frame so zero-byte
// control messages still cost a header.
func (n *Network) wireBytes(payload int64) int64 {
	frames := (payload + mtuPayload - 1) / mtuPayload
	if frames < 1 {
		frames = 1
	}
	return payload + frames*n.cfg.FrameOverhead
}

// TransferTime reports the uncontended one-way time for a payload of the
// given size: useful for analytical checks and tests.
func (n *Network) TransferTime(payload int64) sim.Duration {
	return n.cfg.PerMessageCPU +
		sim.DurationOf(n.wireBytes(payload), n.cfg.BandwidthBps) +
		n.cfg.Latency +
		sim.DurationOf(n.wireBytes(payload), n.cfg.BandwidthBps)
}

// Send transmits msg from the calling process. The caller blocks for the
// sender-side software cost and transmit serialization (as a kernel send
// blocks while the NIC queue drains); propagation, receive serialization and
// delivery proceed asynchronously as a pure event chain — no goroutine or
// process is allocated per message, so in-flight message count never adds to
// the runtime's live goroutine population.
func (n *Network) Send(p *sim.Proc, msg Message) {
	src := n.Iface(msg.From)
	dst := n.Iface(msg.To)
	dstBox := dst.box(msg.Port)
	if dstBox == nil {
		panic(fmt.Sprintf("netsim: send to %s:%d with no listener", msg.To, msg.Port))
	}
	wire := n.wireBytes(msg.Size)
	if msg.Span == 0 {
		msg.Span = p.Span()
	}
	p.Sleep(n.cfg.PerMessageCPU)
	src.tx.HoldFor(p, sim.DurationOf(wire, n.cfg.BandwidthBps))
	src.BytesSent += wire
	src.MsgsSent++
	n.deliver(dst, dstBox, msg, wire)
}

// SendThen transmits msg as a pure event chain, calling done when the
// sender-side cost is paid (the point at which a process calling Send would
// resume). The event sequencing mirrors Send hop for hop — per-message CPU
// as one scheduled event (where Send's caller slept), transmit serialization
// on the source tx resource, sender stats, then the shared asynchronous
// delivery chain — so chained and process-driven sends contending for one
// NIC produce identical schedules. No goroutine or process is involved at
// any point.
func (n *Network) SendThen(msg Message, done func()) {
	src := n.Iface(msg.From)
	dst := n.Iface(msg.To)
	dstBox := dst.box(msg.Port)
	if dstBox == nil {
		panic(fmt.Sprintf("netsim: send to %s:%d with no listener", msg.To, msg.Port))
	}
	wire := n.wireBytes(msg.Size)
	n.env.After(n.cfg.PerMessageCPU, func() {
		src.tx.HoldForThen(sim.DurationOf(wire, n.cfg.BandwidthBps), func() {
			src.BytesSent += wire
			src.MsgsSent++
			n.deliver(dst, dstBox, msg, wire)
			done()
		})
	})
}

// deliver runs the asynchronous half of a transfer — switch latency, receive
// serialization, receiver stats, mailbox delivery — as a chain of scheduled
// events: one at the current instant, one after the switch latency, then
// the rx hold, whose release delivers. No process is spawned per message,
// so live goroutines stay O(processes) instead of O(in-flight messages);
// TestEventDeliveryMatchesCourierReference pins the timestamps against a
// process-per-message reference.
func (n *Network) deliver(dst *Iface, box *sim.Mailbox[Message], msg Message, wire int64) {
	rxTime := sim.DurationOf(wire, n.cfg.BandwidthBps)
	start := n.env.Now()
	n.env.After(0, func() {
		n.env.After(n.cfg.Latency, func() {
			dst.rx.HoldForThen(rxTime, func() {
				dst.BytesReceived += wire
				dst.MsgsReceived++
				if n.tp.Armed() {
					// Record the hop as a child span and hand that span to
					// the receiver, so its records parent to the network
					// layer; with no subscriber the sender's span passes
					// through untouched and the chain skips this layer.
					span := n.env.NextSpanID()
					n.tp.Exit(nil, &trace.Record{
						Time:   start,
						Dur:    n.env.Now() - start,
						Node:   dst.name,
						Rank:   -1,
						Class:  trace.ClassNetMsg,
						Name:   "NET_deliver",
						Ret:    "0",
						Bytes:  msg.Size,
						Span:   span,
						Parent: msg.Span,
					})
					msg.Span = span
				}
				box.Put(msg)
			})
		})
	})
}

// Call performs a synchronous request/response exchange: it sends req to
// (To, Port) and blocks until a reply arrives on the caller's private reply
// mailbox, which is passed to the server inside the request payload.
//
// Request/response protocols (the PFS client, MPI rendezvous) are built on
// this helper. The reply payload is returned as-is.
type rpc struct {
	Req   any
	Reply *sim.Mailbox[Message]
}

// Call sends req and waits for the matching reply. replySize is the payload
// size of the response message travelling back.
func (n *Network) Call(p *sim.Proc, from, to string, port int, reqSize int64, req any) any {
	reply := sim.NewMailbox[Message](n.env)
	n.Send(p, Message{From: from, To: to, Port: port, Size: reqSize,
		Payload: rpc{Req: req, Reply: reply}})
	resp := reply.Get(p)
	return resp.Payload
}

// CallThenSpan performs the request/response exchange of Call as a pure
// event chain: done receives the reply payload at the instant a process
// blocked in Call would resume. The private reply mailbox is consumed with
// GetThen, so no process parks anywhere on the path. Event-chain callers
// have no process to stamp a causal span from, so they capture it before
// entering the chain and pass it here for the request message.
func (n *Network) CallThenSpan(from, to string, port int, reqSize int64, req any, span uint64, done func(resp any)) {
	reply := sim.NewMailbox[Message](n.env)
	n.SendThen(Message{From: from, To: to, Port: port, Size: reqSize,
		Payload: rpc{Req: req, Reply: reply}, Span: span}, func() {
		reply.GetThen(func(m Message) { done(m.Payload) })
	})
}

// ServeRequestThen unwraps a message received by a server loop. If the
// message was produced by Call or CallThenSpan, it returns the inner request
// and a respond function that sends respSize payload bytes back to the
// caller; otherwise respond is nil and the raw payload is returned.
//
// respond transmits the response as a pure event chain: per-message CPU,
// then serialization on the server's tx, after which the reply is handed to
// the switch for delivery to the caller and done runs. The server's release of
// per-request state (a worker-pool unit, the next dispatch) chains off done.
// The reply rides under the request's span, so the reply hop joins the same
// causal subtree.
func (n *Network) ServeRequestThen(server string, msg Message) (req any, respond func(respSize int64, resp any, done func())) {
	call, ok := msg.Payload.(rpc)
	if !ok {
		return msg.Payload, nil
	}
	reply := call.Reply
	from := msg.From
	reqSpan := msg.Span
	return call.Req, func(respSize int64, resp any, done func()) {
		src := n.Iface(server)
		dst := n.Iface(from)
		wire := n.wireBytes(respSize)
		n.env.After(n.cfg.PerMessageCPU, func() {
			src.tx.HoldForThen(sim.DurationOf(wire, n.cfg.BandwidthBps), func() {
				src.BytesSent += wire
				src.MsgsSent++
				n.deliver(dst, reply, Message{From: server, To: from, Size: respSize, Payload: resp, Span: reqSpan}, wire)
				done()
			})
		})
	}
}

// Nodes returns the registered node names, sorted.
func (n *Network) Nodes() []string {
	out := make([]string, 0, len(n.ifaces))
	for name := range n.ifaces {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
