package p2p

import (
	"testing"

	"repro/internal/sim"
)

type recorder struct {
	msgs []string
}

func (r *recorder) handler() Handler {
	return func(from NodeID, payload any) {
		r.msgs = append(r.msgs, payload.(string))
	}
}

func TestSendDelivers(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 10})
	var a, b recorder
	net.Register(1, a.handler())
	net.Register(2, b.handler())
	net.Send(1, 2, "hello")
	s.Run()
	if len(b.msgs) != 1 || b.msgs[0] != "hello" {
		t.Fatalf("b.msgs = %v", b.msgs)
	}
	if len(a.msgs) != 0 {
		t.Fatal("sender received its own message")
	}
	if s.Now() != 10 {
		t.Fatalf("delivery at %d, want 10", s.Now())
	}
}

func TestBroadcastSkipsSender(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 5})
	recs := make([]*recorder, 4)
	for i := range recs {
		recs[i] = &recorder{}
		net.Register(NodeID(i), recs[i].handler())
	}
	net.Broadcast(0, "blk")
	s.Run()
	if len(recs[0].msgs) != 0 {
		t.Fatal("broadcast delivered to sender")
	}
	for i := 1; i < 4; i++ {
		if len(recs[i].msgs) != 1 {
			t.Fatalf("node %d got %d messages", i, len(recs[i].msgs))
		}
	}
}

func TestJitterWithinBounds(t *testing.T) {
	s := sim.New(7)
	net := NewNetwork(s, LatencyModel{Base: 100, Jitter: 50})
	var times []sim.Time
	net.Register(1, func(NodeID, any) {})
	net.Register(2, func(NodeID, any) { times = append(times, s.Now()) })
	for i := 0; i < 200; i++ {
		net.Send(1, 2, i)
	}
	s.Run()
	if len(times) != 200 {
		t.Fatalf("delivered %d, want 200", len(times))
	}
	for _, at := range times {
		if at < 100 || at >= 150 {
			t.Fatalf("delivery at %d outside [100,150)", at)
		}
	}
}

func TestCrashDropsMessages(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 10})
	var b recorder
	net.Register(1, func(NodeID, any) {})
	net.Register(2, b.handler())

	net.Crash(2)
	net.Send(1, 2, "lost")
	s.Run()
	if len(b.msgs) != 0 {
		t.Fatal("crashed node received a message")
	}

	net.Recover(2)
	net.Send(1, 2, "after-recovery")
	s.Run()
	if len(b.msgs) != 1 || b.msgs[0] != "after-recovery" {
		t.Fatalf("b.msgs = %v", b.msgs)
	}
}

func TestInFlightMessageLostOnCrash(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 100})
	var b recorder
	net.Register(1, func(NodeID, any) {})
	net.Register(2, b.handler())
	net.Send(1, 2, "in-flight")
	s.At(50, func() { net.Crash(2) })
	s.Run()
	if len(b.msgs) != 0 {
		t.Fatal("message delivered to node that crashed mid-flight")
	}
}

func TestCrashedSenderCannotSend(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 1})
	var b recorder
	net.Register(1, func(NodeID, any) {})
	net.Register(2, b.handler())
	net.Crash(1)
	net.Send(1, 2, "ghost")
	s.Run()
	if len(b.msgs) != 0 {
		t.Fatal("crashed node sent a message")
	}
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 1})
	var a, b, c recorder
	net.Register(1, a.handler())
	net.Register(2, b.handler())
	net.Register(3, c.handler())

	net.Partition([]NodeID{1}, []NodeID{2, 3})
	net.Send(1, 2, "blocked")
	net.Send(2, 3, "same-side")
	s.Run()
	if len(b.msgs) != 0 {
		t.Fatal("message crossed the partition")
	}
	if len(c.msgs) != 1 {
		t.Fatal("same-partition message not delivered")
	}

	net.Heal()
	net.Send(1, 2, "healed")
	s.Run()
	if len(b.msgs) != 1 || b.msgs[0] != "healed" {
		t.Fatalf("b.msgs = %v", b.msgs)
	}
}

func TestPartitionAppliedToInFlight(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 100})
	var b recorder
	net.Register(1, func(NodeID, any) {})
	net.Register(2, b.handler())
	net.Send(1, 2, "x")
	s.At(10, func() { net.Partition([]NodeID{1}, []NodeID{2}) })
	s.Run()
	if len(b.msgs) != 0 {
		t.Fatal("in-flight message crossed a partition formed before delivery")
	}
}

func TestInFlightMessageCrossesHealBoundary(t *testing.T) {
	// A message sent while the endpoints can talk, with a partition
	// forming and healing entirely within its flight time, is
	// delivered: at both send and delivery the endpoints were
	// connected.
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 100})
	var b recorder
	net.Register(1, func(NodeID, any) {})
	net.Register(2, b.handler())
	net.Send(1, 2, "survivor")
	s.At(10, func() { net.Partition([]NodeID{1}, []NodeID{2}) })
	s.At(60, func() { net.Heal() })
	s.Run()
	if len(b.msgs) != 1 || b.msgs[0] != "survivor" {
		t.Fatalf("b.msgs = %v; in-flight message did not cross the heal boundary", b.msgs)
	}
	if net.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", net.Dropped)
	}
}

func TestSendDuringPartitionDroppedDespiteHeal(t *testing.T) {
	// The converse boundary: a message sent while partitioned is
	// dropped at send time — healing before its delay would have
	// elapsed does not resurrect it.
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 100})
	var b recorder
	net.Register(1, func(NodeID, any) {})
	net.Register(2, b.handler())
	net.Partition([]NodeID{1}, []NodeID{2})
	net.Send(1, 2, "casualty")
	s.At(10, func() { net.Heal() })
	s.Run()
	if len(b.msgs) != 0 {
		t.Fatal("message sent during a partition was delivered after heal")
	}
	if net.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", net.Dropped)
	}
}

func TestNodeAbsentFromEveryGroup(t *testing.T) {
	// Nodes not named in any partition group share group 0: they can
	// talk to each other but to no listed group.
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 1})
	var b, c, d recorder
	net.Register(1, func(NodeID, any) {})
	net.Register(2, b.handler())
	net.Register(3, c.handler())
	net.Register(4, d.handler())
	net.Partition([]NodeID{1}, []NodeID{2})
	net.Send(3, 4, "absentees-talk") // both absent -> both group 0
	net.Send(3, 1, "to-group-1")     // absent -> listed: blocked
	net.Send(1, 3, "from-group-1")   // listed -> absent: blocked
	net.Send(2, 3, "from-group-2")   // listed -> absent: blocked
	s.Run()
	if len(d.msgs) != 1 || d.msgs[0] != "absentees-talk" {
		t.Fatalf("d.msgs = %v; absentees could not talk to each other", d.msgs)
	}
	if len(c.msgs) != 0 {
		t.Fatalf("c.msgs = %v; partition leaked to an absent node", c.msgs)
	}
	if !net.Partitioned() {
		t.Fatal("Partitioned() = false with groups in force")
	}
}

func TestLossDropsDeterministically(t *testing.T) {
	// Two networks built from identically seeded simulators must make
	// identical loss draws — the property that keeps engine aggregates
	// byte-identical across worker counts.
	deliveries := func() (got []int, dropped uint64) {
		s := sim.New(99)
		net := NewNetwork(s, LatencyModel{Base: 10, Loss: 0.3})
		net.Register(1, func(NodeID, any) {})
		net.Register(2, func(_ NodeID, p any) { got = append(got, p.(int)) })
		for i := 0; i < 200; i++ {
			net.Send(1, 2, i)
		}
		s.Run()
		return got, net.Dropped
	}
	a, da := deliveries()
	b, db := deliveries()
	if da != db || len(a) != len(b) {
		t.Fatalf("loss draws diverged: %d/%d dropped, %d/%d delivered", da, db, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
	if da == 0 || len(a) == 0 {
		t.Fatalf("degenerate loss run: %d dropped, %d delivered", da, len(a))
	}
}

func TestOverlayWorstWinsAndRemoval(t *testing.T) {
	s := sim.New(3)
	base := LatencyModel{Base: 10, Jitter: 5}
	net := NewNetwork(s, base)
	o1 := net.PushOverlay(LatencyModel{Base: 100, Loss: 0.5})
	o2 := net.PushOverlay(LatencyModel{Base: 50, Jitter: 200})
	eff := net.Effective()
	if eff.Base != 100 || eff.Jitter != 200 || eff.Loss != 0.5 {
		t.Fatalf("Effective() = %+v, want worst of each field", eff)
	}
	o1.Remove()
	o1.Remove() // idempotent
	eff = net.Effective()
	if eff.Base != 50 || eff.Jitter != 200 || eff.Loss != 0 {
		t.Fatalf("Effective() after removal = %+v", eff)
	}
	o2.Remove()
	if eff := net.Effective(); eff != base {
		t.Fatalf("Effective() = %+v after removing all overlays, want base %+v", eff, base)
	}
}

func TestSchedulePartitionWindowAndSupersession(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 1})
	var b recorder
	net.Register(1, func(NodeID, any) {})
	net.Register(2, b.handler())

	// Window 1: [100, 200). Window 2: [150, 400) supersedes it — the
	// stale heal at 200 must not undo window 2.
	net.SchedulePartition(100, 100, []NodeID{1}, []NodeID{2})
	net.SchedulePartition(150, 250, []NodeID{1}, []NodeID{2})
	probe := func(at sim.Time, label string) {
		s.At(at, func() { net.Send(1, 2, label) })
	}
	probe(50, "before")    // delivered: no partition yet
	probe(120, "w1")       // dropped
	probe(250, "stale")    // dropped: w1's heal was superseded
	probe(420, "after-w2") // delivered: w2 healed at 400
	s.Run()
	want := []string{"before", "after-w2"}
	if len(b.msgs) != len(want) || b.msgs[0] != want[0] || b.msgs[1] != want[1] {
		t.Fatalf("delivered %v, want %v", b.msgs, want)
	}
	if net.Partitioned() {
		t.Fatal("network still partitioned after the last window healed")
	}
}

func TestLinkClassPresetsOrdered(t *testing.T) {
	wan, geo := WANLink(), GeoLink()
	if wan.Base >= geo.Base {
		t.Fatalf("link classes out of order: %v %v", wan, geo)
	}
	if wan.Loss != 0 || geo.Loss != 0 {
		t.Fatal("presets must not bundle loss; loss is an explicit overlay")
	}
}

func TestRegisterTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{})
	net.Register(1, func(NodeID, any) {})
	net.Register(1, func(NodeID, any) {})
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork(sim.New(1), LatencyModel{}).Register(1, nil)
}

func TestSendToUnregisteredIsDropped(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 1})
	net.Register(1, func(NodeID, any) {})
	net.Send(1, 99, "void") // must not panic
	s.Run()
}

func TestCountersAdvance(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{Base: 1})
	var b recorder
	net.Register(1, func(NodeID, any) {})
	net.Register(2, b.handler())
	net.Send(1, 2, "x")
	s.Run() // deliver before crashing
	net.Crash(2)
	net.Send(1, 2, "y")
	s.Run()
	if net.Sent != 2 || net.Delivered != 1 {
		t.Fatalf("Sent=%d Delivered=%d, want 2/1", net.Sent, net.Delivered)
	}
}

func TestNodesOrder(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, LatencyModel{})
	for i := 5; i >= 1; i-- {
		net.Register(NodeID(i), func(NodeID, any) {})
	}
	nodes := net.Nodes()
	want := []NodeID{5, 4, 3, 2, 1}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes() = %v", nodes)
		}
	}
}
