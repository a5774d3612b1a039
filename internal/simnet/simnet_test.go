package simnet

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"kadre/internal/eventsim"
)

type recorder struct {
	msgs []recorded
}

type recorded struct {
	from    Addr
	payload any
	at      time.Duration
}

type recHandler struct {
	rec *recorder
	sim *eventsim.Simulator
}

func (h *recHandler) Deliver(from Addr, payload any) {
	h.rec.msgs = append(h.rec.msgs, recorded{from: from, payload: payload, at: h.sim.Now()})
}

func newNet(t *testing.T, cfg Config) (*eventsim.Simulator, *Network) {
	t.Helper()
	sim := eventsim.New(1)
	return sim, New(sim, cfg)
}

func TestDeliveryWithLatency(t *testing.T) {
	sim, net := newNet(t, Config{Latency: UniformLatency{Min: 30 * time.Millisecond, Max: 30 * time.Millisecond}})
	rec := &recorder{}
	if err := net.Attach(2, &recHandler{rec: rec, sim: sim}); err != nil {
		t.Fatal(err)
	}
	net.Send(1, 2, "hello")
	sim.Run()
	if len(rec.msgs) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(rec.msgs))
	}
	m := rec.msgs[0]
	if m.from != 1 || m.payload != "hello" || m.at != 30*time.Millisecond {
		t.Fatalf("got %+v", m)
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Lost != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAttachErrors(t *testing.T) {
	_, net := newNet(t, Config{})
	rec := &recorder{}
	h := &recHandler{rec: rec}
	if err := net.Attach(1, nil); err == nil {
		t.Error("nil handler should fail")
	}
	if err := net.Attach(1, h); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(1, h); err == nil {
		t.Error("double attach should fail")
	}
}

// TestAttachAtAddrLimit: the host table is indexed by address, so an
// address at or above the ceiling is refused before the table grows, and a
// message to an address beyond the table finds no route.
func TestAttachAtAddrLimit(t *testing.T) {
	sim, net := newNet(t, Config{})
	h := &recHandler{rec: &recorder{}, sim: sim}
	for _, addr := range []Addr{AddrLimit, AddrLimit + 1, math.MaxUint64} {
		if err := net.Attach(addr, h); err == nil {
			t.Errorf("Attach(%d) succeeded at or above AddrLimit %d", addr, AddrLimit)
		}
	}
	if net.hosts != nil || net.NumAttached() != 0 || net.Attached(AddrLimit) {
		t.Fatalf("refused attaches left a host table of %d entries, %d attached", len(net.hosts), net.NumAttached())
	}
	net.Detach(AddrLimit) // a no-op, like any unknown address
	if err := net.Attach(3, h); err != nil {
		t.Fatal(err)
	}
	if len(net.hosts) != 4 || net.NumAttached() != 1 {
		t.Fatalf("Attach(3) left a host table of %d entries, %d attached; want 4 and 1", len(net.hosts), net.NumAttached())
	}
	net.Send(1, AddrLimit, "x")
	net.Send(1, 3, "y")
	sim.Run()
	if st := net.Stats(); st.NoRoute != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v, want one message without a route and one delivered", st)
	}
}

func TestDetachDropsInFlight(t *testing.T) {
	sim, net := newNet(t, Config{Latency: UniformLatency{Min: time.Second, Max: time.Second}})
	rec := &recorder{}
	if err := net.Attach(2, &recHandler{rec: rec, sim: sim}); err != nil {
		t.Fatal(err)
	}
	net.Send(1, 2, "x")
	net.Detach(2)
	sim.Run()
	if len(rec.msgs) != 0 {
		t.Fatal("message delivered to detached host")
	}
	if st := net.Stats(); st.NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", st.NoRoute)
	}
	if net.Attached(2) {
		t.Error("host still attached after Detach")
	}
}

func TestSendToUnknownAddress(t *testing.T) {
	sim, net := newNet(t, Config{})
	net.Send(1, 99, "x")
	sim.Run()
	if st := net.Stats(); st.NoRoute != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestUniformLatencyBounds: draws stay in [Min, Max], and a degenerate
// range (Min == Max, a fixed delay) delays by Min without drawing a
// random number, on its own and through a lossless Send: a fixed-delay
// network leaves the kernel's random stream, and so every later event,
// to the protocol above it.
func TestUniformLatencyBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := UniformLatency{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := m.Delay(r)
		if d < m.Min || d > m.Max {
			t.Fatalf("delay %v outside [%v, %v]", d, m.Min, m.Max)
		}
	}
	degenerate := UniformLatency{Min: 5 * time.Millisecond, Max: 5 * time.Millisecond}
	r, twin := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	if d := degenerate.Delay(r); d != 5*time.Millisecond {
		t.Fatalf("degenerate uniform = %v", d)
	}
	if r.Int63() != twin.Int63() {
		t.Fatal("a degenerate range drew a random number")
	}

	sim, net := newNet(t, Config{Latency: degenerate})
	twin = rand.New(rand.NewSource(1)) // newNet's kernel seed
	rec := &recorder{}
	if err := net.Attach(2, &recHandler{rec: rec, sim: sim}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		net.Send(1, 2, i)
	}
	sim.Run()
	if len(rec.msgs) != 10 || rec.msgs[9].at != 5*time.Millisecond {
		t.Fatalf("delivered %d messages, last at %v; want 10 at 5ms", len(rec.msgs), rec.msgs[len(rec.msgs)-1].at)
	}
	if sim.Rand().Int63() != twin.Int63() {
		t.Fatal("lossless sends over a degenerate range drew from the kernel's random stream")
	}
}

func TestLossRate(t *testing.T) {
	sim, net := newNet(t, Config{Loss: 0.25})
	rec := &recorder{}
	if err := net.Attach(2, &recHandler{rec: rec, sim: sim}); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		net.Send(1, 2, i)
	}
	sim.Run()
	got := float64(net.Stats().Lost) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("observed loss rate %.4f, want ~0.25", got)
	}
	if int(net.Stats().Delivered) != len(rec.msgs) {
		t.Fatal("delivered counter does not match handler invocations")
	}
}

func TestTable1LossScenarios(t *testing.T) {
	// Table 1 of the paper: one-way and two-way loss probabilities.
	tests := []struct {
		level     LossLevel
		oneWay    float64
		twoWay    float64
		tolerance float64
	}{
		{LossNone, 0.0, 0.0, 0},
		{LossLow, 0.025, 0.05, 0.001},
		{LossMedium, 0.134, 0.25, 0.002},
		{LossHigh, 0.293, 0.50, 0.001},
	}
	for _, tt := range tests {
		t.Run(tt.level.String(), func(t *testing.T) {
			if got := tt.level.OneWayLoss(); got != tt.oneWay {
				t.Errorf("OneWayLoss = %v, want %v", got, tt.oneWay)
			}
			if got := tt.level.TwoWayLoss(); math.Abs(got-tt.twoWay) > tt.tolerance {
				t.Errorf("TwoWayLoss = %v, want ~%v", got, tt.twoWay)
			}
		})
	}
}

func TestParseLossLevel(t *testing.T) {
	for _, l := range Levels() {
		got, err := ParseLossLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLossLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLossLevel("bogus"); err == nil {
		t.Error("expected error for unknown level")
	}
	if l, err := ParseLossLevel("med"); err != nil || l != LossMedium {
		t.Error("'med' should parse as medium")
	}
}

func TestDeliveryOrderPreservedUnderFixedLatency(t *testing.T) {
	sim, net := newNet(t, Config{Latency: UniformLatency{Min: 10 * time.Millisecond, Max: 10 * time.Millisecond}})
	rec := &recorder{}
	if err := net.Attach(2, &recHandler{rec: rec, sim: sim}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		net.Send(1, 2, i)
	}
	sim.Run()
	for i, m := range rec.msgs {
		if m.payload != i {
			t.Fatalf("message %d arrived out of order: %v", i, m.payload)
		}
	}
}

func TestTwoWayFailureFormula(t *testing.T) {
	if got := TwoWayFailure(0); got != 0 {
		t.Errorf("TwoWayFailure(0) = %v", got)
	}
	if got := TwoWayFailure(1); got != 1 {
		t.Errorf("TwoWayFailure(1) = %v", got)
	}
	if got := TwoWayFailure(0.5); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("TwoWayFailure(0.5) = %v, want 0.75", got)
	}
}

// sink is a Handler that counts deliveries and bounces the first few back,
// the way a protocol answers a request from inside Deliver.
type sink struct {
	net      *Network
	self     Addr
	got      int
	bounce   int
	lastFrom Addr
	last     any
}

func (s *sink) Deliver(from Addr, payload any) {
	s.got++
	s.lastFrom, s.last = from, payload
	if s.bounce > 0 {
		s.bounce--
		s.net.Send(s.self, from, payload)
	}
}

// TestSendDeliverAllocationBudget: in steady state a message is a pooled
// delivery record posted on a pooled kernel timer — the network itself
// allocates nothing, whatever the caller spent boxing its payload.
func TestSendDeliverAllocationBudget(t *testing.T) {
	sim := eventsim.New(1)
	net := New(sim, Config{Latency: UniformLatency{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond}})
	a := &sink{net: net, self: 1}
	b := &sink{net: net, self: 2}
	if err := net.Attach(1, a); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(2, b); err != nil {
		t.Fatal(err)
	}
	payload := any(&struct{ n int }{7})
	for i := 0; i < 64; i++ { // warm the record free list and the queue
		net.Send(1, 2, payload)
	}
	sim.Run()
	allocs := testing.AllocsPerRun(500, func() {
		b.bounce = 2
		net.Send(1, 2, payload)
		net.Send(1, 2, payload)
		net.Send(1, 3, payload) // no route: dropped at delivery time
		sim.Run()
	})
	if allocs > 1 {
		t.Fatalf("send+deliver allocated %v times per run, budget 1", allocs)
	}
	if allocs != 0 {
		t.Errorf("send+deliver allocated %v times per run; a pre-boxed payload should cost 0", allocs)
	}
	if a.got == 0 || a.last != payload || a.lastFrom != 2 {
		t.Fatalf("bounced message not delivered intact: got=%d from=%d", a.got, a.lastFrom)
	}
	st := net.Stats()
	if st.Sent != st.Delivered+st.NoRoute+st.Lost || st.NoRoute == 0 {
		t.Fatalf("stats do not add up: %+v", st)
	}
}

// TestDeliveryRecordReuseKeepsMessagesApart: a handler that sends from
// inside Deliver gets the record of the message being delivered, whose
// timer has already fired and is idle; what it was delivered must
// already be its own.
func TestDeliveryRecordReuseKeepsMessagesApart(t *testing.T) {
	sim := eventsim.New(1)
	net := New(sim, Config{Latency: UniformLatency{Min: time.Millisecond, Max: time.Millisecond}})
	var seen []int
	relay := handlerFunc(func(from Addr, payload any) {
		n := payload.(int)
		seen = append(seen, n)
		if n < 5 {
			d := net.free // the record that carried n
			if d == nil || d.timer.Pending() {
				t.Fatalf("message %d: the record to reuse is missing or its timer still pending", n)
			}
			net.Send(1, 1, n+1)
			if net.free == d || !d.timer.Pending() {
				t.Fatalf("message %d: the reply did not re-arm the record that carried it", n)
			}
		}
		if got := payload.(int); got != n {
			t.Errorf("payload changed under the handler: %d -> %d", n, got)
		}
	})
	if err := net.Attach(1, relay); err != nil {
		t.Fatal(err)
	}
	net.Send(1, 1, 0)
	sim.Run()
	for i, n := range seen {
		if n != i {
			t.Fatalf("relay chain saw %v", seen)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("relay chain saw %v, want 0..5", seen)
	}
}

type handlerFunc func(from Addr, payload any)

func (f handlerFunc) Deliver(from Addr, payload any) { f(from, payload) }
