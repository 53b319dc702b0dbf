package netsim

import (
	"sort"
	"testing"
	"testing/quick"

	"iotaxo/internal/sim"
)

func testNet(env *sim.Env) *Network {
	n := New(env, Config{
		BandwidthBps:  125e6,
		Latency:       60 * sim.Microsecond,
		FrameOverhead: 66,
		PerMessageCPU: 8 * sim.Microsecond,
	})
	n.AddNode("a")
	n.AddNode("b")
	n.AddNode("c")
	return n
}

func TestSendDelivers(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	inbox := n.Listen("b", 7)
	var got Message
	var at sim.Time
	env.Go("recv", func(p *sim.Proc) {
		got = inbox.Get(p)
		at = p.Now()
	})
	env.Go("send", func(p *sim.Proc) {
		n.Send(p, Message{From: "a", To: "b", Port: 7, Size: 1000, Payload: "hi"})
	})
	env.Run()
	if got.Payload != "hi" || got.From != "a" {
		t.Fatalf("got %+v", got)
	}
	if want := n.TransferTime(1000); at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestListenUnknownNodePanics(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Listen("nosuch", 1)
}

func TestDuplicateNodePanics(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env, GigabitEthernet())
	n.AddNode("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.AddNode("x")
}

func TestTxSerialization(t *testing.T) {
	// Two back-to-back sends from one node must serialize on its NIC.
	env := sim.NewEnv(1)
	n := testNet(env)
	inbox := n.Listen("b", 1)
	var arrivals []sim.Time
	env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			inbox.Get(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	env.Go("send", func(p *sim.Proc) {
		n.Send(p, Message{From: "a", To: "b", Port: 1, Size: 1 << 20})
		n.Send(p, Message{From: "a", To: "b", Port: 1, Size: 1 << 20})
	})
	env.Run()
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	gap := arrivals[1] - arrivals[0]
	serial := sim.DurationOf(1<<20+((1<<20)/1460+1)*66, 125e6)
	// Pipeline: second message is one serialization behind the first, plus
	// the second per-message CPU charge.
	if gap < serial {
		t.Fatalf("messages did not serialize: gap %v < %v", gap, serial)
	}
}

func TestIncastRxContention(t *testing.T) {
	// Two senders to one receiver: aggregate delivery time must reflect the
	// receiver's single ingress link.
	env := sim.NewEnv(1)
	n := testNet(env)
	inbox := n.Listen("c", 1)
	var last sim.Time
	env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			inbox.Get(p)
			last = p.Now()
		}
	})
	const size = 4 << 20
	env.Go("s1", func(p *sim.Proc) {
		n.Send(p, Message{From: "a", To: "c", Port: 1, Size: size})
	})
	env.Go("s2", func(p *sim.Proc) {
		n.Send(p, Message{From: "b", To: "c", Port: 1, Size: size})
	})
	env.Run()
	rxSerial := sim.DurationOf(size+((size)/1460+1)*66, 125e6)
	if last < 2*rxSerial {
		t.Fatalf("incast finished too fast: %v < %v", last, 2*rxSerial)
	}
}

func TestCallRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	inbox := n.Listen("b", 2)
	env.Go("server", func(p *sim.Proc) {
		msg := inbox.Get(p)
		req, respond := n.ServeRequestThen("b", msg)
		if req != "ping" {
			t.Errorf("server got %v", req)
		}
		respond(100, "pong", func() {})
	})
	var reply any
	env.Go("client", func(p *sim.Proc) {
		reply = n.Call(p, "a", "b", 2, 100, "ping")
	})
	env.Run()
	if reply != "pong" {
		t.Fatalf("reply = %v", reply)
	}
}

func TestServeRequestRawPayload(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	req, respond := n.ServeRequestThen("b", Message{Payload: 42})
	if req != 42 || respond != nil {
		t.Fatalf("raw payload mishandled: req=%v respondNil=%v", req, respond == nil)
	}
	_ = env
}

func TestStatsAccumulate(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	n.Listen("b", 1)
	env.Go("send", func(p *sim.Proc) {
		n.Send(p, Message{From: "a", To: "b", Port: 1, Size: 500})
	})
	env.Run()
	if n.Iface("a").MsgsSent != 1 || n.Iface("a").BytesSent <= 500 {
		t.Fatalf("sender stats: %+v", n.Iface("a"))
	}
	if n.Iface("b").MsgsReceived != 1 {
		t.Fatalf("receiver stats: %+v", n.Iface("b"))
	}
}

// TestTransferTimeFrameCount pins the frame accounting at and around exact
// MTU multiples: a 1460-byte payload fits one frame and 2920 bytes fit two —
// the old `payload/1460 + 1` charged each an extra empty frame.
func TestTransferTimeFrameCount(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	expect := func(payload, frames int64) sim.Duration {
		wire := payload + frames*n.cfg.FrameOverhead
		oneWay := sim.DurationOf(wire, n.cfg.BandwidthBps)
		return n.cfg.PerMessageCPU + oneWay + n.cfg.Latency + oneWay
	}
	for _, c := range []struct {
		payload, frames int64
	}{
		{0, 1}, // zero-byte control message still costs a header
		{1, 1},
		{1459, 1},
		{1460, 1}, // exact MTU multiple: one frame, not two
		{1461, 2},
		{2919, 2},
		{2920, 2}, // two exact frames
		{2921, 3},
	} {
		if got, want := n.TransferTime(c.payload), expect(c.payload, c.frames); got != want {
			t.Errorf("TransferTime(%d) = %v, want %v (%d frames)", c.payload, got, want, c.frames)
		}
	}
}

func TestNodesSorted(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env, GigabitEthernet())
	for _, name := range []string{"zeta", "alpha", "mid", "beta"} {
		n.AddNode(name)
	}
	got := n.Nodes()
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Nodes() not sorted: %v", got)
	}
	if len(got) != 4 || got[0] != "alpha" || got[3] != "zeta" {
		t.Fatalf("Nodes() = %v", got)
	}
}

// TestDeliverySpawnsNoProcs is the per-message allocation regression test:
// message delivery is a pure event chain, so no process (and therefore no
// goroutine or resume channel) may be created per message.
func TestDeliverySpawnsNoProcs(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	inbox := n.Listen("b", 1)
	const msgs = 64
	env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			inbox.Get(p)
		}
	})
	env.Go("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			n.Send(p, Message{From: "a", To: "b", Port: 1, Size: 4096})
		}
	})
	env.Run()
	if got := n.Iface("b").MsgsReceived; got != msgs {
		t.Fatalf("delivered %d messages, want %d", got, msgs)
	}
	if spawned := env.Spawned("net.courier"); spawned != 0 {
		t.Fatalf("%d courier procs spawned for %d messages, want 0", spawned, msgs)
	}
}

// courierSend is the retired goroutine-per-message delivery engine, kept
// here as the reference implementation: the eventized Send must reproduce
// its schedule exactly.
func courierSend(n *Network, p *sim.Proc, msg Message) {
	src := n.Iface(msg.From)
	dst := n.Iface(msg.To)
	dstBox := dst.box(msg.Port)
	wire := n.wireBytes(msg.Size)
	p.Sleep(n.cfg.PerMessageCPU)
	src.tx.HoldFor(p, sim.DurationOf(wire, n.cfg.BandwidthBps))
	src.BytesSent += wire
	src.MsgsSent++
	n.env.Go("net.courier", func(c *sim.Proc) {
		c.Sleep(n.cfg.Latency)
		dst.rx.HoldFor(c, sim.DurationOf(wire, n.cfg.BandwidthBps))
		dst.BytesReceived += wire
		dst.MsgsReceived++
		dstBox.Put(msg)
	})
}

// TestEventDeliveryMatchesCourierReference drives a contended incast
// scenario — randomized sizes and jittered start times, three senders into
// one receiver — through both engines and requires every delivery timestamp
// to match: the byte-identical-output guarantee of the refactor.
func TestEventDeliveryMatchesCourierReference(t *testing.T) {
	type send struct {
		from  string
		after sim.Duration
		size  int64
	}
	var plan []send
	{
		env := sim.NewEnv(42)
		for _, from := range []string{"a", "b", "c"} {
			for i := 0; i < 10; i++ {
				plan = append(plan, send{
					from:  from,
					after: sim.Duration(env.Rand().Int63n(int64(200 * sim.Microsecond))),
					size:  env.Rand().Int63n(1 << 18),
				})
			}
		}
	}
	run := func(engine func(*Network, *sim.Proc, Message)) []sim.Time {
		env := sim.NewEnv(1)
		n := New(env, GigabitEthernet())
		n.AddNode("a")
		n.AddNode("b")
		n.AddNode("c")
		n.AddNode("sink")
		inbox := n.Listen("sink", 1)
		var arrivals []sim.Time
		env.Go("recv", func(p *sim.Proc) {
			for i := 0; i < len(plan); i++ {
				inbox.Get(p)
				arrivals = append(arrivals, p.Now())
			}
		})
		bySender := map[string][]send{}
		for _, s := range plan {
			bySender[s.from] = append(bySender[s.from], s)
		}
		for _, from := range []string{"a", "b", "c"} {
			mine := bySender[from]
			from := from
			env.Go("send."+from, func(p *sim.Proc) {
				for _, s := range mine {
					p.Sleep(s.after)
					engine(n, p, Message{From: s.from, To: "sink", Port: 1, Size: s.size})
				}
			})
		}
		env.Run()
		return arrivals
	}
	ref := run(courierSend)
	got := run(func(n *Network, p *sim.Proc, m Message) { n.Send(p, m) })
	if len(ref) != len(plan) || len(got) != len(plan) {
		t.Fatalf("deliveries: ref %d, event %d, want %d", len(ref), len(got), len(plan))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("delivery %d: courier engine at %v, event engine at %v", i, ref[i], got[i])
		}
	}
}

// Property: TransferTime is monotone nondecreasing in payload size.
func TestTransferTimeMonotoneProperty(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return n.TransferTime(x) <= n.TransferTime(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	_ = env
}

// Property: per-byte cost falls as messages grow (framing amortization).
func TestLargeMessagesMoreEfficient(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	small := n.TransferTime(1024).Seconds() / 1024
	large := n.TransferTime(1<<22).Seconds() / float64(1<<22)
	if large >= small {
		t.Fatalf("per-byte cost did not fall: small %g, large %g", small, large)
	}
	_ = env
}

func TestGigabitEthernetDefaults(t *testing.T) {
	cfg := GigabitEthernet()
	if cfg.BandwidthBps != 125e6 {
		t.Fatalf("bandwidth = %v", cfg.BandwidthBps)
	}
	if cfg.Latency <= 0 || cfg.PerMessageCPU <= 0 || cfg.FrameOverhead <= 0 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
}
